#!/usr/bin/env python3
"""Zero out the phase timings in a cfdclean JSON envelope.

Everything else in the envelope is deterministic, so after this pass the
output is byte-comparable against a committed golden.  Reads one envelope
on stdin, writes the normalized envelope (2-space indent, trailing
newline) on stdout.  Envelopes without a report.phases object (e.g. error
envelopes) pass through unchanged apart from re-indentation.

Also gates the envelope version: every producer (CLI subcommands, bench,
the serve daemon) emits the v2 shape — {"v": 2, "request": ..., "ok":
..., "report": ..., "diagnostics": [...]} — and a golden regenerated
from an older binary should fail here, not as a confusing diff.
"""
import json
import sys


def main() -> None:
    envelope = json.load(sys.stdin)
    if envelope.get("v") != 2:
        sys.exit(f"normalize_envelope: expected envelope v2, got {envelope.get('v')!r}")
    report = envelope.get("report") or {}
    phases = report.get("phases")
    if isinstance(phases, dict):
        for name in phases:
            phases[name] = 0.0
    json.dump(envelope, sys.stdout, indent=2)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
