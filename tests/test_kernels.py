"""The entry route calls no BLAS, so its outputs are the same bytes on every
OpenBLAS kernel: kernel_digest.py runs once on this machine's own kernel and
once per kernel it can force, each in its own process on one BLAS thread."""

import os
import subprocess
import sys

import pytest

from kernel_digest import openblas_core

HERE = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(HERE, os.pardir, "src")

# the CPU flags each forced kernel needs; SkylakeX is not forced, since a CPU
# without AVX-512 cannot run it
KERNELS = {"Haswell": ("avx2", "fma"), "Sandybridge": ("avx",)}


def cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def start_child(kernel: str | None) -> subprocess.Popen:
    """kernel_digest.py on the given kernel, or on the own kernel for None,
    whatever OPENBLAS_CORETYPE this process runs under."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(PYTHONPATH=os.path.abspath(SRC_DIR), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    return subprocess.Popen([sys.executable, os.path.join(HERE, "kernel_digest.py")], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def digests():
    """(core name, digest) per kernel this CPU can run, None for the own
    kernel, from children started together."""
    if openblas_core() == "unknown":
        pytest.skip("numpy's bundled OpenBLAS, which OPENBLAS_CORETYPE selects in, is not found")
    flags = cpu_flags()
    children = {kernel: start_child(kernel)
                for kernel in [None, *KERNELS] if kernel is None or flags >= set(KERNELS[kernel])}
    out = {}
    try:
        for kernel, child in children.items():
            stdout, stderr = child.communicate(timeout=120)
            assert child.returncode == 0, stderr
            out[kernel] = tuple(stdout.split())
    finally:
        for child in children.values():
            child.kill()
            child.wait()
    return out


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_entry_route_outputs_keep_their_bytes_on_a_forced_kernel(digests, kernel):
    missing = [flag for flag in KERNELS[kernel] if flag not in cpu_flags()]
    if missing:
        pytest.skip(f"{kernel} needs the CPU flag {missing[0]}, which /proc/cpuinfo lacks")
    core, digest = digests[kernel]
    assert core == kernel  # else the child did not run on the forced kernel
    own_core, own_digest = digests[None]
    assert digest == own_digest, f"{kernel} outputs differ from those on {own_core}"
