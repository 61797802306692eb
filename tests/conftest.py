import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ompdiff.campaign import ToolchainSpec


@pytest.fixture(scope="session")
def toolchains():
    """g++ -O3 and the same without vectorization: one compiler compared with
    a flag variant of itself, as Csmith does. Weaker evidence than two
    vendors, but it needs only g++ with libgomp."""
    if shutil.which("g++") is None:
        pytest.skip("g++ is not on PATH")
    gcc = ToolchainSpec(id="gcc", template="g++ {flags} {src} -o {out}",
                        flags=["-O3", "-fopenmp"])
    return [gcc, replace(gcc, id="gcc-novec",
                         flags=gcc.flags + ["-fno-tree-vectorize"])]


@pytest.fixture(scope="session")
def toolchain(toolchains):
    return toolchains[0]
