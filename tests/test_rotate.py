"""data.rotate and data._sincosdg against scipy, bit for bit.

scipy is not a dependency of the engine; it serves here as the oracle, so
this module is skipped where scipy is not installed.
"""

import zlib

import numpy as np
import pytest

from biasloss import data

ndimage = pytest.importorskip("scipy.ndimage")
special = pytest.importorskip("scipy.special")


def scipy_rotate(images, angles):
    return np.stack([ndimage.rotate(img, a, axes=(2, 1), reshape=False,
                                    order=1, mode="constant", cval=0.0,
                                    prefilter=False)
                     for img, a in zip(images, angles)])


def images_of(kind, shape, dtype, rng):
    """Random normal, 0/1 or 0-255 pixels; "planted" puts NaN, +-inf and
    -0.0 on about a tenth of a random image's pixels."""
    if kind == "normal":
        images = rng.normal(size=shape)
    elif kind == "binary":
        images = rng.integers(0, 2, shape).astype(np.float64)
    elif kind == "bytes":
        images = rng.integers(0, 256, shape).astype(np.float64)
    else:
        images = rng.random(shape)
        flat = images.reshape(-1)
        at = rng.choice(flat.size, max(1, flat.size // 10), replace=False)
        flat[at] = rng.choice([np.nan, np.inf, -np.inf, -0.0], at.size)
    return images.astype(dtype)


ANGLES = {
    "zero": [0.0, -0.0],
    "paper_range": [15.0, -15.0],
    "right": [90.0, 180.0, -90.0, 270.0],
    "tiny": [1e-15, -1e-15],
    "uniform": None,  # drawn over [-720, 720]
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["normal", "binary", "bytes", "planted"])
@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 6), (2, 7, 4),
                                   (3, 5, 9), (1, 28, 28), (3, 32, 32)],
                         ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("angles", list(ANGLES))
def test_rotate_equals_scipy(angles, shape, kind, dtype):
    rng = np.random.default_rng(zlib.crc32(f"{angles}{shape}{kind}".encode()))
    n = 37  # three chunks, the last ragged
    if ANGLES[angles] is None:
        turns = rng.uniform(-720.0, 720.0, n)
    else:
        turns = np.resize(ANGLES[angles], n)
    images = images_of(kind, (n,) + shape, dtype, rng)
    got = data.rotate(images, turns)
    want = scipy_rotate(images, turns)
    assert got.dtype == want.dtype == dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_sincosdg_equals_scipy():
    rng = np.random.default_rng(24)
    degrees = np.concatenate([
        rng.uniform(-720.0, 720.0, 40_000),
        np.arange(-720.0, 720.5, 0.5),  # octant edges and their halves
        [0.0, -0.0, 1e-15, -1e-15, 1e14, -1e14, 1e15, -1e15]])
    sin, cos = data._sincosdg(degrees)
    assert sin.tobytes() == special.sindg(degrees).tobytes()
    assert cos.tobytes() == special.cosdg(degrees).tobytes()
