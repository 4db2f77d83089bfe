"""Shared helpers: an independent matching enumerator, database fixtures,
the C kernel built from source and a kernel-outcome comparator.

all_tangles enumerates perfect matchings directly (pair the first free
position with every other free position, recurse), so database-completeness
tests do not lean on the breadth-first search they are checking.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import sysconfig
from pathlib import Path
from typing import Iterator

import pytest

import brauer
from brauer.errors import BrauerError
from brauer.oracle import MinimalDatabase, cached_database
from brauer.tangle import Tangle


def all_pairings(m: int) -> Iterator[tuple[int, ...]]:
    pairing = [-1] * m

    def rec(free: list[int]) -> Iterator[tuple[int, ...]]:
        if not free:
            yield tuple(pairing)
            return
        p = free[0]
        for k in range(1, len(free)):
            q = free[k]
            pairing[p], pairing[q] = q, p
            yield from rec(free[1:k] + free[k + 1 :])
        pairing[p] = -1

    yield from rec(list(range(m)))


def all_tangles(n: int) -> Iterator[Tangle]:
    for pairing in all_pairings(2 * n):
        yield Tangle(n, pairing)


def outcome(fn, *args):
    """fn's result, or the class and message of the BrauerError it raised."""
    try:
        return fn(*args)
    except BrauerError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="session")
def db() -> dict[int, MinimalDatabase]:
    """Databases for B_1..B_6, built once per test session."""
    return {n: cached_database(n) for n in range(1, 7)}


@pytest.fixture(scope="session")
def speedups(tmp_path_factory):
    """The C kernel, built from the package's _speedups.c into a temporary
    directory and loaded from there; skips only when no C compiler exists.
    BRAUER_SPEEDUPS names a build to load instead (test_sanitizers.py
    passes its sanitizer build this way)."""
    name = "brauer._kernels._speedups"
    path = os.environ.get("BRAUER_SPEEDUPS")
    if not path:
        cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
        if shutil.which(cc) is None:
            pytest.skip(f"no C compiler ({cc})")
        from setuptools import Distribution, Extension

        source = Path(brauer.__file__).parent / "_kernels" / "_speedups.c"
        out = tmp_path_factory.mktemp("speedups")
        ext = Extension(name, [str(source)], extra_compile_args=["-O2"])
        build = Distribution({"ext_modules": [ext]}).get_command_obj("build_ext")
        build.build_lib, build.build_temp = str(out), str(out / "tmp")
        build.ensure_finalized()
        build.run()
        path = build.get_ext_fullpath(name)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
