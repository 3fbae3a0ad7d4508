"""The sdident command line under the benchmark's tracer.

    python3 -X importtime perfbench/cli_child.py <sdident arguments>

Behaves like ``python -m sdident.cli`` and, before exiting, writes its
layer totals as JSON to the file descriptor named by PERFBENCH_TRACE_FD.
"""

import json
import os
import sys

import sdident.cli
from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.begin_request()
    code = sdident.cli.main(sys.argv[1:])
    sys.stdout.flush()
    with os.fdopen(int(os.environ["PERFBENCH_TRACE_FD"]), "wb") as out:
        out.write(json.dumps(tracer.child_summary()).encode())
    return code


if __name__ == "__main__":
    sys.exit(main())
