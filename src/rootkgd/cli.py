"""Command-line interface.

Subcommands: fit, diagnose, trace, validate-kg, synth. Flags override config
file keys, which override built-in defaults. Exit codes: 0 success, 1
validation or diagnosis failure, 2 usage or parse errors.
"""

from __future__ import annotations

import functools
import gc
import json
import logging
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import click
import numpy as np

from .config import ConfigError, DiagnosisConfig, load_config
from .dataio import write_csv
from .kgraph import GraphError, GraphParseError, GraphValidationError, load_graph, save_graph
from .pipeline import run_diagnose, run_fit, run_trace
from .scoring import format_report, report_lines

logger = logging.getLogger(__name__)

EXIT_FAILURE = 1
EXIT_USAGE = 2


def _effective_config(config_path: str | None, **flags) -> DiagnosisConfig:
    """The config file, or the defaults, with each flag that is not None on top."""
    base = load_config(config_path) if config_path else DiagnosisConfig()
    return replace(base, **{k: v for k, v in flags.items() if v is not None})


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigError, GraphParseError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_USAGE)
        except GraphValidationError as exc:
            for line in exc.errors:
                click.echo(f"error: {line}", err=True)
            sys.exit(EXIT_FAILURE)
        except (GraphError, ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_FAILURE)

    return wrapper


@click.group()
@click.pass_context
def main(ctx):
    """Root-cause diagnosis from a plant knowledge graph and process data.

    It ends by freezing the collector's view of what the process holds so
    far (numpy, click, these modules): those objects live until exit, so
    later collections and the interpreter's teardown skip them. The
    collector stays on for the command's own objects. An in-process caller,
    such as a test's ``CliRunner``, keeps every object alive at that point
    frozen.
    """
    level_name = os.environ.get("ROOTKGD_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    # A handler per invocation, so each logs to its own stderr.
    package = logging.getLogger("rootkgd")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    package.addHandler(handler)
    package.setLevel(level)
    ctx.call_on_close(lambda: package.removeHandler(handler))
    gc.freeze()


@main.command()
@click.option("--config", "config_path", type=click.Path(), help="JSON config file.")
@click.option("--graph", "graph_path", type=click.Path(), help="Knowledge graph file.")
@click.option("--data", "data_path", type=click.Path(), help="Normal-operation CSV.")
@click.option("--model", "model_path", type=click.Path(), help="Where to write the model.")
@click.option("--r-pc", type=float, default=None, help="Retained variance ratio in (0, 1].")
@handle_errors
def fit(config_path, graph_path, data_path, model_path, r_pc):
    """Fit the monitoring model on normal-operation data."""
    config = _effective_config(
        config_path,
        graph_path=graph_path,
        normal_data_path=data_path,
        model_path=model_path,
        r_pc=r_pc,
    )
    model = run_fit(config)
    click.echo(
        f"fitted PCA model: n={model.n_variables} variables, k={model.n_pc} components, "
        f"retained variance {model.retained_variance:.4f}"
    )
    if config.model_path:
        click.echo(f"model written to {config.model_path}")


@main.command()
@click.option("--config", "config_path", type=click.Path(), help="JSON config file.")
@click.option("--graph", "graph_path", type=click.Path(), help="Knowledge graph file.")
@click.option("--model", "model_path", type=click.Path(), help="Fitted model file.")
@click.option("--data", "data_path", type=click.Path(), help="Fault-episode CSV.")
@click.option("--fault-start", type=int, default=None, help="Index of the first fault sample.")
@click.option("--window", type=int, default=None, help="Fault window length (default 100).")
@click.option("--top-k", type=int, default=None, help="Entries per ranking column (default 10).")
@click.option("--json", "json_path", type=click.Path(), help="Also write the JSON report here.")
@handle_errors
def diagnose(config_path, graph_path, model_path, data_path, fault_start, window, top_k,
             json_path):
    """Rank root-cause candidates for a fault episode."""
    config = _effective_config(
        config_path,
        graph_path=graph_path,
        model_path=model_path,
        fault_data_path=data_path,
        fault_start=fault_start,
        window=window,
        top_k=top_k,
    )
    ranking = run_diagnose(config)
    click.echo(format_report(ranking, top_k=config.top_k), nl=False)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.writelines(report_lines(ranking))
        click.echo(f"report written to {json_path}")


@main.command()
@click.argument("source")
@click.option("--config", "config_path", type=click.Path(), help="JSON config file.")
@click.option("--graph", "graph_path", type=click.Path(), help="Knowledge graph file.")
@handle_errors
def trace(source, config_path, graph_path):
    """Dump the propagation event log from SOURCE as TSV."""
    config = _effective_config(config_path, graph_path=graph_path)
    click.echo(run_trace(config, source), nl=False)


@main.command("validate-kg")
@click.argument("graph_file", type=click.Path())
@handle_errors
def validate_kg(graph_file):
    """Validate a knowledge graph file; exit 0 only if it has no errors."""
    try:
        graph = load_graph(graph_file)
    except GraphValidationError as exc:
        for line in exc.errors:
            click.echo(f"error: {line}")
        for line in exc.warnings:
            click.echo(f"warning: {line}")
        sys.exit(EXIT_FAILURE)
    for line in graph.warnings:
        click.echo(f"warning: {line}")
    click.echo(
        f"ok: {len(graph.entities)} entities, {len(graph.relations)} relations, "
        f"{len(graph.triples)} triples, {len(graph.warnings)} warnings"
    )


@main.command()
@click.option("--out", "out_dir", type=click.Path(), default="plant", show_default=True,
              help="Output directory.")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--devices", type=click.IntRange(min=1), default=3, show_default=True)
@handle_errors
def synth(out_dir, seed, devices):
    """Generate a synthetic plant: graph, normal/fault data, truth manifest.

    The episode is fixed: 2,000 normal rows, and 400 fault rows with a
    10-sigma step on a seeded random variable over rows 100-199.
    """
    from . import synth as synthmod  # only this command simulates: others skip the import

    graph, model = synthmod.generate_plant(synthmod.PlantSpec(n_devices=devices, seed=seed))
    root_id = model.columns[int(np.random.default_rng(seed).integers(len(model.columns)))]
    injection = synthmod.FaultInjection(root=root_id, start=100)
    normal = synthmod.simulate(model, 2000, seed=seed + 1)
    faulty = synthmod.simulate(model, 400, injection=injection, seed=seed + 2)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_graph(graph, out / "graph.json")
    write_csv(normal, out / "normal.csv")
    write_csv(faulty, out / "fault.csv")
    manifest = {
        "seed": seed,
        "root": root_id,
        "root_kind": "variable",
        "owner_device": model.owner_device(root_id),
        "fault": {k: v for k, v in asdict(injection).items() if k != "root"},
        "columns": list(model.columns),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    click.echo(f"plant written to {out} (root: {root_id})")


if __name__ == "__main__":
    main()
