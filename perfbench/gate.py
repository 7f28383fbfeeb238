"""Correctness gate applied to every measured run.

An operation is one study run or one sweep point.  It fails when it
raises a ``ThermolimError``, raises a convergence flag, breaks a
workload's own contract, or moves a summary scalar away from the value
frozen in references.json for its drawn input.

Tolerances sit above the package's 1e-8 contracts and accept the 2e-8
to 9e-8 relative gap between the Dyson quadrature and a block
exponential: relative 1e-6 for quadrature amplitudes and Wigner
scalars, absolute 1e-7 for fidelities and residuals of unit-norm states.
"""

from __future__ import annotations

import json
from pathlib import Path

from inputs import DELTA_REF, SWEEP_N

REFERENCES = Path(__file__).with_name("references.json")

REL_TOL = 1e-6
ABS_TOL = 1e-7
_ABSOLUTE = {"min_fidelity", "residual_leading", "residual_corrected"}

REFERENCE_KEYS = {
    "cat-exact": ("min_fidelity",),
    "convergence-cat": ("residual_leading", "residual_corrected"),
    "dyson-sweep": ("first_amplitude", "second_amplitude"),
    "wigner-washout": ("sup_averaged", "visibility_t0"),
}


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def matches(key: str, value, ref: float) -> bool:
    if not isinstance(value, (int, float)):
        return False
    tol = ABS_TOL if key in _ABSOLUTE else REL_TOL * abs(ref)
    return abs(value - ref) <= tol


def point_keys(workload: str) -> list[str]:
    return [str(n) for n in SWEEP_N] if workload == "dyson-sweep" else ["run"]


def expected(workload: str, drawn: dict, point: str, references: dict) -> dict:
    """Reference summary scalars for one operation of a drawn input."""
    if workload == "dyson-sweep":
        ref = references[workload][point]
        scale = drawn["delta"] / DELTA_REF
        return {"first_amplitude": ref["first_amplitude"] * scale,
                "second_amplitude": ref["second_amplitude"] * scale**2}
    return references[workload][str(drawn["phi_level"])]


def _contract(workload: str, summary: dict) -> list[str]:
    bad = []
    if workload == "cat-exact":
        if not summary["min_fidelity"] >= 1.0 - 1e-8:
            bad.append(f"min_fidelity {summary['min_fidelity']!r} below 1 - 1e-8")
        if not summary["max_norm_drift"] <= 1e-9:
            bad.append(f"max_norm_drift {summary['max_norm_drift']!r} above 1e-9")
    if workload == "wigner-washout" and not summary["average_report"]["converged"]:
        bad.append("time average not converged")
    return bad


def check(workload: str, drawn: dict, outcome: dict, references: dict | None) -> dict[str, list[str]]:
    """Failure reasons per operation (empty list: the operation passed).

    ``outcome`` holds ``partial`` and, per point key, ``summary``,
    ``flags`` and ``error``.  Without references only the contracts are
    checked."""
    reasons: dict[str, list[str]] = {}
    for key in point_keys(workload):
        point = outcome["points"].get(key)
        if point is None:
            reasons[key] = [outcome.get("error") or "missing"]
            continue
        if point["error"]:
            reasons[key] = [point["error"]]
            continue
        bad = [f"flag: {f}" for f in point["flags"]]
        if outcome["partial"]:
            bad.append("sweep marked partial")
        bad += _contract(workload, point["summary"])
        if references is not None:
            for name, ref in expected(workload, drawn, key, references).items():
                value = point["summary"].get(name)
                if not matches(name, value, ref):
                    bad.append(f"{name} {value!r} != reference {ref!r}")
        reasons[key] = bad
    return reasons
