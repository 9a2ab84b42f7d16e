"""Runs one ``v2vbeam`` subcommand in a fresh interpreter and records its timing.

    python3 child.py RECORD MODE RUN_ID -- SUBCOMMAND [ARGS...]

MODE is ``run`` (time the subcommand), ``trace`` (also record spans into
RECORD.spans.json) or ``setup`` (stop where the subcommand would start).
RECORD receives a JSON object with the CLOCK_MONOTONIC times at which the
subcommand started and returned, its exit code and the peak resident set
of this process and its waited-for children. The benchmark compares the start
time with the time it launched this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def own_peak_rss_kb() -> int:
    """Peak resident set of this process since it started the interpreter.

    getrusage's figure for the process itself also counts the launching
    process: exec keeps the high-water mark of the image it replaces, so it
    would report the benchmark's own memory. The kernel's VmHWM does not.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    record_path, mode, run_id, sep, command, *rest = sys.argv[1:]
    if sep != "--" or mode not in ("run", "trace", "setup"):
        raise SystemExit("usage: child.py RECORD run|trace|setup RUN_ID -- SUBCOMMAND [ARGS...]")
    import v2vbeam.cli as cli

    record: dict = {"mode": mode}
    name = "cmd_" + command
    subcommand = getattr(cli, name)
    recorder = None
    if mode == "trace":
        from spans import SpanRecorder

        recorder = SpanRecorder(run_id)
        recorder.install()
        subcommand = recorder.wrap(subcommand, f"cli.{command}")

    def timed(args):
        record["start"] = time.monotonic()
        if mode == "setup":
            code = 0
        else:
            code = subcommand(args)
        record["end"] = time.monotonic()
        return code

    setattr(cli, name, timed)
    code = cli.main([command, *rest])
    record["exit_code"] = code
    record["peak_rss_kb"] = max(own_peak_rss_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if recorder is not None:
        recorder.dump(record_path + ".spans.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
