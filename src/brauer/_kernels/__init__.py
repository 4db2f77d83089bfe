"""Kernel backend selection.

The C extension built from _speedups.c is used when it was built;
otherwise the pure-Python twin in pure.py takes over transparently.  Set
BRAUER_PURE=1 to force the fallback (useful for benchmarking and for
debugging the kernels themselves).
"""

from __future__ import annotations

import os

from . import pure

if os.environ.get("BRAUER_PURE"):
    impl = pure
    BACKEND = "pure"
else:
    try:
        from . import _speedups as impl  # type: ignore[no-redef]

        BACKEND = "c"
    except ImportError:
        impl = pure
        BACKEND = "pure"

crossing_counts = impl.crossing_counts
expand = impl.expand
factorize_core = impl.factorize_core
rank = impl.rank
unrank = impl.unrank
