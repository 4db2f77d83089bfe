"""The C kernel under AddressSanitizer and UBSan (slow suite).

_speedups.c is built with both sanitizers into a temporary directory, and a
child pytest runs the kernel parity, twin and fuzz tests against that
build, with the sanitizer runtimes preloaded into the interpreter.  The
build is also the C kernel of a temporary copy of the package, first on
the child's PYTHONPATH, so the golden families (the slow --min-t ones too)
run it through the CLI.  Any sanitizer report fails the test; it skips
only when gcc lacks the runtimes, and says so.
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

    package = tmp_path / "package"
    shutil.copytree(source.parents[1], package / "brauer", ignore=shutil.ignore_patterns("*.so"))
    kernel = package / "brauer" / "_kernels" / build.name
    shutil.copy(build, kernel)

    tests = Path(__file__).parent
    env = dict(
        os.environ,
        BRAUER_SPEEDUPS=str(build),
        PYTHONPATH=os.pathsep.join(filter(None, [str(package), os.environ.get("PYTHONPATH")])),
        LD_PRELOAD=" ".join(runtimes),
        ASAN_OPTIONS="detect_leaks=0",
        UBSAN_OPTIONS="print_stacktrace=1",
    )
    env.pop("BRAUER_PURE", None)

    def run(args):
        done = subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, cwd=tests.parent,
            timeout=900,
        )
        report = done.stdout + done.stderr
        assert "Sanitizer" not in report and "runtime error" not in report, report[-4000:]
        assert done.returncode == 0, report[-4000:]
        return done.stdout

    probe = "import brauer._kernels as k; print(k.BACKEND, k.impl.__file__)"
    assert run(["-c", probe]).split() == ["c", str(kernel)]
    # --capture=sys: a report written to fd 2 as the runtime aborts must
    # reach the pipe, not a capture file that dies with the process.
    child = ["-m", "pytest", "-q", "--capture=sys", "-p", "no:cacheprovider"]
    files = [str(tests / name) for name in ("test_kernels.py", "test_fuzz.py", "test_golden.py")]
    run(child + files)
    run(child + [files[-1], "-m", "slow", "-k", "min-t"])
