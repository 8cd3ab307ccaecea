"""Fresh-interpreter probes of set-up cost, run as a child of the benchmark.

    python perfbench/probe.py setup ARGV...   import, then one CLI command
    python perfbench/probe.py layers          import, then first vs warm factorize

Prints one JSON object.  Interpreter start-up is excluded: the clock starts
just before the package is imported.

- ``setup``: ``import_s`` (selfpower and selfpower.cli) and ``setup_s``, the
  import plus the command ARGV run in process, which builds the lazy state
  (such as the prime sieve) the workload's operations need.
- ``layers``: ``import_s`` and ``sieve_s``, the first ``factorize(2)`` minus a
  second, warm one.

Both also report ``loop_ns``, the time of pace.py's SMALL reference loop
(import is small-integer and object work) measured after the timed part.
"""

import contextlib
import io
import json
import sys
from time import perf_counter

if __name__ == "__main__":
    t0 = perf_counter()
    import program

    selfpower, cli = program.load()
    t1 = perf_counter()
    result = {"import_s": t1 - t0}
    if sys.argv[1] == "setup":
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(sys.argv[2:])
        result["setup_s"] = perf_counter() - t0
    else:
        selfpower.factorize(2)
        t2 = perf_counter()
        selfpower.factorize(2)
        t3 = perf_counter()
        result["sieve_s"] = (t2 - t1) - (t3 - t2)
    # the host's speed just after, for scaling setup_s (see pace.py); imported
    # only now, since both modules import fractions, which the timed import of
    # selfpower has to pay for itself
    import statistics

    import pace

    pace.SMALL.run()
    result["loop_ns"] = statistics.median(pace.loop_ns(pace.SMALL) for _ in range(5))
    print(json.dumps(result))
