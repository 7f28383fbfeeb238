"""Command line entry points.

One subcommand per study plus ``sweep``::

    thermolim <study> --config <file> [--out <dir>] [--seed <u64>]
    thermolim sweep --config <file> [...]

``--emit wigner-bin`` switches the averaged Wigner artifact to the
binary grid format.  A study subcommand runs the sweep its config
declares, if any, exactly as ``sweep`` does; a config without a sweep
axis is one point run in the output directory itself.  The exit status
is nonzero iff a run raised a convergence flag or a sweep point failed.
"""

from __future__ import annotations

import click

from .errors import ThermolimError
from .harness import (
    STUDY_NAMES,
    ScenarioConfig,
    load_config,
    run_sweep,
)

_CONTEXT = {"help_option_names": ["-h", "--help"]}


@click.group(context_settings=_CONTEXT)
def main() -> None:
    """Thermodynamic-limit study driver."""


def _common_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(exists=True, dir_okay=False),
                      help="Flat key = value config file (JSON-typed values).")(fn)
    fn = click.option("--out", "out_dir", default=None,
                      help="Output directory (default from config).")(fn)
    fn = click.option("--seed", default=None, type=int,
                      help="Base RNG seed (u64).")(fn)
    fn = click.option("--emit", "emit", multiple=True,
                      type=click.Choice(["wigner-bin"]),
                      help="Extra artifact formats.")(fn)
    return fn


def _run(config_path, out_dir, seed, emit, study=None) -> None:
    """Run the config's sweep (one point without an axis) and report it."""
    try:
        config = ScenarioConfig.from_mapping(
            load_config(config_path), study=study, out_dir=out_dir, seed=seed,
            emit_wigner_bin=True if "wigner-bin" in emit else None)
        records, aggregate = run_sweep(config)
    except ThermolimError as exc:
        raise click.ClickException(str(exc)) from exc
    records = [record for record in records if record is not None]
    for record in records:
        click.echo(f"{record.config.study}: {len(record.rows)} rows -> "
                   f"{record.out_dir} ({', '.join(sorted(record.manifest))})")
        for flag in record.convergence_flags:
            click.echo(f"flag: {flag}")
    for entry in aggregate["points"]:
        if "error" in entry:
            click.echo(f"point {entry['value']}: {entry['error']}")
    for key, value in sorted(aggregate["aggregates"].items()):
        click.echo(f"{key}: {value}")
    if aggregate["partial"] or any(r.convergence_flags for r in records):
        raise SystemExit(1)


def _make_study_command(study: str):
    @_common_options
    def command(**options):
        _run(**options, study=study)

    command.__name__ = study.replace("-", "_")
    command.__doc__ = f"Run the {study} study pipeline."
    return main.command(name=study)(command)


for _study in STUDY_NAMES:
    _make_study_command(_study)


@main.command(name="sweep")
@_common_options
def sweep(**options):
    """Run the sweep declared in the config (study + axis + values)."""
    _run(**options)


if __name__ == "__main__":
    main()
