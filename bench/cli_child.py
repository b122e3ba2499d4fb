"""Traced CLI process for the cli-cold workload's traced run.

Usage: python bench/cli_child.py SPANS_OUT SUBCOMMAND [ARGS...]

Imports olk under a span, installs the tracer, runs the subcommand through
olk.cli.run_command exactly as `python -m olk.cli` would, writes the spans
to SPANS_OUT as JSON lines and exits with the command's exit code.
"""

import importlib
import os
import sys


def main(argv):
    out, command = argv[0], argv[1:]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from tracing import Tracer
    tracer = Tracer()
    olk = tracer.call("cli.import_olk", importlib.import_module, "olk")
    importlib.import_module("olk.cli")
    tracer.install(olk)
    code = olk.cli.run_command(command)
    sys.stdout.flush()
    tracer.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
