"""The C kernel under AddressSanitizer and UBSan (slow suite).

_speedups.c is built with both sanitizers into a temporary directory, and a
child pytest runs the kernel parity, twin and fuzz tests against that
build, with the sanitizer runtimes preloaded into the interpreter.  Any
sanitizer report fails the test; it skips only when gcc lacks the
runtimes, and says so.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import brauer

FLAGS = ["-fsanitize=address,undefined", "-fno-sanitize-recover=undefined", "-O1", "-g"]


@pytest.mark.slow
def test_kernel_under_sanitizers(tmp_path):
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("no gcc on PATH")
    runtimes = []
    for lib in ("libasan.so", "libubsan.so"):
        found = subprocess.run([gcc, f"-print-file-name={lib}"], capture_output=True, text=True)
        path = found.stdout.strip()
        if not os.path.isabs(path) or not os.path.exists(path):
            pytest.skip(f"gcc has no {lib}, so the sanitizer build cannot run")
        runtimes.append(path)
    include = sysconfig.get_paths()["include"]
    source = Path(brauer.__file__).parent / "_kernels" / "_speedups.c"
    build = tmp_path / f"_speedups{sysconfig.get_config_var('EXT_SUFFIX')}"
    cmd = [gcc, "-shared", "-fPIC", *FLAGS, f"-I{include}", str(source), "-o", str(build)]
    subprocess.run(cmd, check=True, capture_output=True)

    tests = Path(__file__).parent
    env = dict(
        os.environ,
        BRAUER_SPEEDUPS=str(build),
        LD_PRELOAD=" ".join(runtimes),
        ASAN_OPTIONS="detect_leaks=0",
        UBSAN_OPTIONS="print_stacktrace=1",
    )
    # --capture=sys: a report written to fd 2 as the runtime aborts must
    # reach the pipe, not a capture file that dies with the process.
    child = [sys.executable, "-m", "pytest", "-q", "--capture=sys", "-p", "no:cacheprovider"]
    child += [str(tests / "test_kernels.py"), str(tests / "test_fuzz.py")]
    done = subprocess.run(
        child, env=env, capture_output=True, text=True, cwd=tests.parent, timeout=900
    )
    report = done.stdout + done.stderr
    assert "Sanitizer" not in report and "runtime error" not in report, report[-4000:]
    assert done.returncode == 0, report[-4000:]
