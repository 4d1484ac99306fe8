import functools

import pytest

from shiryaev_qsd import EigenSystem, solve_lambda


@functools.lru_cache(maxsize=None)
def _solved(A: float):
    return solve_lambda(A)


@pytest.fixture(scope="session")
def solved():
    """Memoized solve_lambda so the many tests sharing a cutoff pay once."""
    return _solved


# fixed inputs of the kernel pins (the moments, the W grid, the series of
# C): (rate, normalizer) in float.hex, the solve's bits when those pins were
# taken. A kernel pin reads these, not the solve, so that a solve whose last
# bit moves leaves the pins of the kernels it does not touch alone;
# test_solve_bits_are_pinned pins the solve
PINNED_SYSTEMS = {
    0.5: ("0x1.9cc29491208b4p+2", "0x1.4a7028d116bcap+10"),
    3.0: ("0x1.1821840a92937p-1", "0x1.3c3f48101a18ep+2"),
    10.2406: ("0x1.fffe0599f7588p-4", "0x1.cdf849ef058a2p+0"),
    10.3: ("0x1.fc9a6529fb5b1p-4", "0x1.ccb3de55f13b4p+0"),
    12.0: ("0x1.ab2797d3d8dafp-4", "0x1.ae60834fbab79p+0"),
    20.0: ("0x1.e2264a2ffa673p-5", "0x1.692503d99ad19p+0"),
    700.0: ("0x1.7b3c35d838c41p-10", "0x1.04b487633c262p+0"),
    1e5: ("0x1.4f9b3b3e229bep-17", "0x1.000ebd90cb672p+0"),
    1e9: ("0x1.12e0bf2ca019cp-30", "0x1.000000afb0698p+0"),
}


@pytest.fixture(scope="session")
def pinned():
    """The unvalidated system of PINNED_SYSTEMS at a cutoff."""
    def make(A: float) -> EigenSystem:
        lam, C = PINNED_SYSTEMS[A]
        return EigenSystem(A, float.fromhex(lam), float.fromhex(C), 0.0, validate=False)
    return make
