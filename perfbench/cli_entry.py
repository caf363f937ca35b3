"""Run the rootkgd command line; report its peak memory and, if traced, its spans.

Usage: python cli_entry.py REPORT_JSON TRACE ARGS...

Runs ``rootkgd ARGS...`` in this process (``rootkgd`` must be importable; the
benchmark puts the checkout's ``src`` on PYTHONPATH). With TRACE 1 the import
of the CLI module is timed as the ``cli.import`` span and the tracer is
installed; the scoring workers' spans are spilled to REPORT_JSON.workers and
adopted. When the command exits, whatever its exit code, REPORT_JSON
receives the peak RSS of this process and the children it reaped (the scoring
workers), and the spans.
"""

import json
import resource
import sys

from tracing import CLI_IMPORT, Tracer


def peak_rss_kib() -> int:
    """Peak RSS of this process since exec and of the children it reaped, in KiB.

    ``ru_maxrss`` of a process also counts its parent's RSS at the time it was
    spawned, so this process's own peak is read from ``VmHWM``.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration, ValueError):
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main() -> None:
    report_path, trace, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = Tracer(trace, report_path + ".workers")
    try:
        with tracer.span(CLI_IMPORT):
            import rootkgd.cli
        tracer.install()
        rootkgd.cli.main(args=cli_args, prog_name="rootkgd")
    finally:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump({"peak_rss_kib": peak_rss_kib(), "spans": tracer.records()}, fh)


if __name__ == "__main__":
    main()
