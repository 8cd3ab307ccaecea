"""Loading the program under test from the checkout, and recording where it ran.

The benchmark measures the ``selfpower`` package in this checkout's ``src``
directory, never an installed copy: ``load`` puts that directory first on
``sys.path``, imports the package and refuses to go on when it resolved
anywhere else.  The ``XX_*`` variables that ``Config.from_env`` reads are
removed from this process and from every child, so the environment cannot
change the work a run does.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Environment variables the program reads as configuration fallbacks.
CONFIG_ENV = ("XX_FACTOR_BUDGET", "XX_BIT_CAP", "XX_SEED")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable selfpower package under src."""


def _clean_environment() -> None:
    for name in CONFIG_ENV:
        os.environ.pop(name, None)


def load():
    """Import selfpower and selfpower.cli from ``SRC``; return both modules."""
    _clean_environment()
    if not (SRC / "selfpower" / "__init__.py").is_file():
        raise ProgramMissing(f"no selfpower package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import selfpower
    import selfpower.cli

    where = Path(selfpower.__file__).resolve()
    if not where.is_relative_to(SRC):
        raise ProgramMissing(f"selfpower was imported from {where}, outside {SRC}")
    return selfpower, selfpower.cli


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's src only, no XX_*."""
    env = {k: v for k, v in os.environ.items() if k not in CONFIG_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def _commit() -> str:
    # read .git directly: the checkout may not be a repository, and asking
    # git would search the directories above it
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(selfpower, workload: str, seed: int) -> dict:
    """What every result records about the code and machine it came from."""
    return {
        "backend": selfpower.BACKEND,
        "commit": _commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
        "workload": workload,
    }
