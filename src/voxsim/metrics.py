"""Realism and diversity metrics over occupancy grids and feature sets.

Feature extraction networks are out of scope: the distributional metrics
(Vendi, MMD, KID, FID) operate on externally supplied N x D feature matrices.
"""

from __future__ import annotations

import struct

import numpy as np

from .occupancy import container_floats, read_container, write_hashed


# --- semantic-space metrics -------------------------------------------------

def miou(a, b, classes):
    """Per-class IoU and their mean; classes absent from both grids are
    excluded from the mean. Two grids must share dimensions and, when both
    carry a semantic table, that table: a label value means nothing apart
    from its table."""
    la = a.labels if hasattr(a, "labels") else np.asarray(a)
    lb = b.labels if hasattr(b, "labels") else np.asarray(b)
    if la.shape != lb.shape:
        raise ValueError("grids must share dimensions")
    if hasattr(a, "table") and hasattr(b, "table") and a.table != b.table:
        raise ValueError("grids must share a semantic table")
    per_class = {}
    present = []
    for c in classes:
        in_a = la == c
        in_b = lb == c
        union = int(np.logical_or(in_a, in_b).sum())
        if union == 0:
            per_class[c] = None
            continue
        inter = int(np.logical_and(in_a, in_b).sum())
        per_class[c] = inter / union
        present.append(inter / union)
    mean = float(np.mean(present)) if present else 0.0
    return per_class, mean


def pairwise_diversity(rollouts, classes):
    """Complement of the mean pairwise mIoU over all unordered rollout pairs,
    per timestep, plus the time mean.

    ``rollouts`` is a list of N frame sequences of one nonzero length.
    """
    n = len(rollouts)
    if n < 2:
        raise ValueError("diversity needs at least two rollouts")
    lengths = [len(r) for r in rollouts]
    steps = lengths[0]
    if not steps or lengths.count(steps) != n:
        raise ValueError(f"rollouts must have one nonzero length, got lengths {lengths}")
    d_t = []
    for t in range(steps):
        vals = []
        for i in range(n):
            for j in range(i + 1, n):
                _, m = miou(rollouts[i][t], rollouts[j][t], classes)
                vals.append(m)
        d_t.append(1.0 - float(np.mean(vals)))
    return d_t, float(np.mean(d_t))


# --- feature-space metrics --------------------------------------------------

def vendi(features: np.ndarray) -> float:
    """Exponential of the von Neumann entropy of the trace-normalized cosine
    kernel Q_ij = (1 + x_i . x_j) / 2 over l2-normalized rows."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or len(x) < 1:
        raise ValueError("features must be a nonempty N x D matrix")
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero feature vector")
    xn = x / norms[:, None]
    q = (1.0 + xn @ xn.T) / 2.0
    q_hat = q / np.trace(q)
    lam = np.linalg.eigvalsh(q_hat)
    lam = np.clip(lam, 0.0, None)  # clamp eigensolver noise in [-1e-10, 0]
    nz = lam[lam > 0]
    entropy = -float((nz * np.log(nz)).sum())
    return float(np.exp(entropy))


def gaussian_kernel(x: np.ndarray, y: np.ndarray, sigma: float) -> np.ndarray:
    d2 = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-d2 / (2.0 * sigma ** 2))


def polynomial_kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """KID's cubic kernel (x.y/D + 1)^3."""
    return (x @ y.T / x.shape[1] + 1.0) ** 3


def _feature_sets(x, y):
    """x and y as float arrays; a ValueError naming both shapes unless each
    is a matrix of at least two rows and both share one width D >= 1."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if (x.ndim != 2 or y.ndim != 2 or min(len(x), len(y)) < 2
            or x.shape[1] != y.shape[1] or x.shape[1] < 1):
        raise ValueError(f"feature sets must be N x D and M x D with N, M >= 2 "
                         f"and D >= 1, got {x.shape} and {y.shape}")
    return x, y


def _mmd2(x, y, kernel) -> float:
    """Unbiased squared-MMD U-statistic under ``kernel``: off-diagonal
    within-set means plus the full cross-set mean."""
    x, y = _feature_sets(x, y)
    m, n = len(x), len(y)
    kxx, kyy, kxy = kernel(x, x), kernel(y, y), kernel(x, y)
    sum_xx = (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
    sum_yy = (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
    sum_xy = kxy.mean()
    return float(sum_xx + sum_yy - 2.0 * sum_xy)


def mmd(x: np.ndarray, y: np.ndarray, sigma: float = 1.0) -> float:
    """Unbiased MMD^2 with the Gaussian kernel of bandwidth ``sigma``."""
    return _mmd2(x, y, lambda a, b: gaussian_kernel(a, b, sigma))


def kid(x: np.ndarray, y: np.ndarray) -> float:
    """Unbiased MMD^2 with the cubic polynomial kernel (x.y/D + 1)^3."""
    return _mmd2(x, y, polynomial_kernel)


FID_EIG_FLOOR = 1e-10  # covariance eigenvalues below this count as singular


def fid(x: np.ndarray, y: np.ndarray):
    """Frechet distance between Gaussian fits of two feature sets.

    tr((Sx Sy)^{1/2}) is computed through the symmetric product
    Sx^{1/2} Sy Sx^{1/2}. Returns (value, flagged) where flagged marks a
    singular covariance handled with the eigenvalue floor FID_EIG_FLOOR.
    """
    x, y = _feature_sets(x, y)
    mu_x, mu_y = x.mean(axis=0), y.mean(axis=0)
    cx = np.cov(x, rowvar=False)
    cy = np.cov(y, rowvar=False)
    cx = np.atleast_2d(cx)
    cy = np.atleast_2d(cy)

    flagged = False

    def psd_sqrt(c):
        nonlocal flagged
        w, v = np.linalg.eigh(c)
        if np.any(w < FID_EIG_FLOOR):
            flagged = True
            w = np.maximum(w, FID_EIG_FLOOR)
        return (v * np.sqrt(w)) @ v.T

    sx_half = psd_sqrt(cx)
    inner = sx_half @ cy @ sx_half
    w = np.linalg.eigvalsh(inner)
    w = np.clip(w, 0.0, None)
    tr_sqrt = float(np.sqrt(w).sum())
    value = float(((mu_x - mu_y) ** 2).sum() + np.trace(cx) + np.trace(cy) - 2.0 * tr_sqrt)
    return max(value, 0.0), flagged


# --- feature file container -------------------------------------------------

def write_features(x: np.ndarray, path) -> str:
    """Write ``x`` as a FEATSET1 file and return the file's sha256."""
    x = np.ascontiguousarray(x, dtype="<f4")
    return write_hashed(path, b"FEATSET1", struct.pack("<II", x.shape[0], x.shape[1]), x)


def read_features(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    n, d = read_container(data, b"FEATSET1", "<II")
    return container_floats(data, 16, (n, d))
