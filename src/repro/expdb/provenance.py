"""Run provenance: which code, interpreter and environment produced a run.

Every recorded experiment carries a :func:`provenance_snapshot` so a
number in a table is traceable back to the exact tree that produced it —
the reproducibility discipline the experiment database exists for
(ROADMAP: "every perf claim becomes a regenerable, hash-pinned
artifact").  The snapshot is deliberately **hostname-free**: it names the
git commit, the interpreter and the repo-relevant
environment knobs, but nothing that identifies the machine or user, so
artifacts can be published as-is.
"""

import os
import subprocess
import sys

#: environment variables that change what a run computes or how it is
#: scheduled — the only ones worth recording (and safe to publish)
TRACKED_ENV = ("REPRO_JOBS", "REPRO_SM_SHARDS", "REPRO_EXPDB", "PYTHONHASHSEED")


def _git(args, cwd=None):
    try:
        out = subprocess.run(
            ["git"] + list(args),
            cwd=cwd,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.decode("utf-8", "replace").strip()


def git_info(cwd=None):
    """``{"sha": ..., "dirty": ...}`` for the tree at ``cwd`` (or CWD).

    Outside a git checkout (an unpacked release tarball, a stripped CI
    image) both fields are ``None`` — provenance degrades, it never
    raises.
    """
    sha = _git(["rev-parse", "HEAD"], cwd=cwd)
    if sha is None:
        return {"sha": None, "dirty": None}
    status = _git(["status", "--porcelain"], cwd=cwd)
    return {"sha": sha, "dirty": None if status is None else bool(status)}


def provenance_snapshot(cwd=None):
    """The full provenance record stored with every experiment-DB run.

    Plain JSON-able data: git identity, interpreter version, a
    coarse (hostname-free) platform summary, and the tracked environment
    variables that were set.
    """
    import platform

    return {
        "git": git_info(cwd=cwd),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        # third-party packages that can change simulated results: none,
        # the simulator depends only on the standard library; the key
        # stays so every recorded run has one provenance schema
        "packages": {},
        "platform": {
            "system": platform.system(),
            "machine": platform.machine(),
        },
        "argv0": os.path.basename(sys.argv[0]) if sys.argv else None,
        "env": {
            name: os.environ[name] for name in TRACKED_ENV if name in os.environ
        },
    }
