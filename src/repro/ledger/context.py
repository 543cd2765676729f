"""Machine context recorded next to every ledger run.

A run's numbers are only interpretable together with the code revision and
hardware they were measured on, so every run row stores the current git
SHA, the CPU count, the platform and the Python/NumPy versions;
``python -m repro.ledger list`` and ``show`` print them.

Everything here degrades gracefully: no git binary or no repository simply
produces a ``None`` SHA — recording a run must never fail because the
machine lacks context.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from typing import Optional

import numpy as np

__all__ = ["benchmark_context", "git_sha"]


def git_sha(root: "Optional[str | os.PathLike]" = None) -> Optional[str]:
    """The current git commit SHA, or ``None`` outside a repository.

    Example
    -------
    >>> sha = git_sha()
    >>> sha is None or len(sha) == 40
    True
    """
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=None if root is None else os.fspath(root),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and len(sha) == 40 else None


def benchmark_context() -> dict:
    """Everything needed to interpret a run's numbers later.

    Returns a JSON-ready dict with the git SHA, CPU count, platform and
    library versions.

    Example
    -------
    >>> context = benchmark_context()
    >>> context["cpu_count"] >= 1
    True
    """
    return {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
