"""Principal component fitting, projection and SPE residual distances.

The covariance eigendecomposition is LAPACK's symmetric solver
(``np.linalg.eigh``); a sign convention on each component makes the loadings
unique.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError
from .ingest import read_json_object


@dataclass
class PcaModel:
    """Fitted principal components.

    ``loadings`` holds one unit-norm principal direction per row (n x m),
    ordered by descending eigenvalue of the training covariance.
    """

    mean: np.ndarray
    loadings: np.ndarray
    eigenvalues: np.ndarray
    total_variance: float

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.loadings = np.asarray(self.loadings, dtype=np.float64)
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        if self.loadings.ndim != 2:
            raise ValueError("loadings must be 2-D (components x variables)")
        n, m = self.loadings.shape
        if n > m:
            raise ValueError("cannot keep more components than variables")
        if self.mean.shape != (m,):
            raise ValueError("mean length does not match loadings columns")
        if self.eigenvalues.shape != (n,):
            raise ValueError("one eigenvalue per retained component required")

    @property
    def n_components(self) -> int:
        return self.loadings.shape[0]

    @property
    def n_variables(self) -> int:
        return self.loadings.shape[1]

    def save(self, path: str | Path) -> None:
        fields = {
            "mean": self.mean.tolist(),
            "loadings": self.loadings.tolist(),
            "eigenvalues": self.eigenvalues.tolist(),
            "total_variance": self.total_variance,
        }
        Path(path).write_text(json.dumps(fields, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "PcaModel":
        """The model ``save`` wrote to ``path``.  A missing or damaged file,
        or one that holds no model, is refused with a
        :class:`~tsgad.config.ConfigError` that names it."""
        d = read_json_object(path, "re-run ingest")
        try:
            return cls(d["mean"], d["loadings"], d["eigenvalues"], float(d["total_variance"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{path}: not a saved PCA model ({exc}); re-run ingest") from None


def _fix_signs(components: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each component row positive."""
    out = components.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def fit_pca(data: np.ndarray, n_components: int) -> PcaModel:
    """Fit principal components on (normal) training rows.

    Components are eigenvectors of the sample covariance (ddof=1) of the
    mean-centered data, descending by eigenvalue.  Zero-variance data yields
    zero eigenvalues, not an error.

    A float64 ``data`` array is centred in place: on return it holds the
    rows minus the model's mean, which :func:`project` would give them, so
    their scores are ``data @ model.loadings.T``.  A caller that still needs
    the rows passes a copy.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("data must be 2-D (rows x variables)")
    n_rows, m = data.shape
    if n_rows < 2:
        raise ValueError("need at least 2 rows to fit")
    if not 1 <= n_components <= m:
        raise ValueError(f"n_components must be in [1, {m}]")
    mean = data.mean(axis=0)
    data -= mean
    cov = data.T @ data / (n_rows - 1)
    # eigh sorts ascending; PCA keeps the largest components first
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    eigenvalues = np.maximum(eigenvalues[::-1], 0.0)
    loadings = _fix_signs(eigenvectors.T[::-1][:n_components])
    return PcaModel(
        mean=mean,
        loadings=loadings,
        eigenvalues=eigenvalues[:n_components],
        total_variance=float(eigenvalues.sum()),
    )


def _rows(model: PcaModel, data: np.ndarray) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != model.n_variables:
        raise ValueError(
            f"data must be (rows x {model.n_variables}), got {data.shape}"
        )
    return data


def project(model: PcaModel, data: np.ndarray) -> np.ndarray:
    """Project rows into the retained principal subspace: (X - mean) @ P.T.

    A float64 ``data`` array is centred in place, as :func:`fit_pca`
    centres its rows; a caller that still needs the rows passes a copy.
    """
    data = _rows(model, data)
    data -= model.mean
    return data @ model.loadings.T


def variance_ratios(model: PcaModel) -> np.ndarray:
    """Fraction of total training variance captured by each component."""
    if model.total_variance <= 0.0:
        return np.zeros(model.n_components)
    return model.eigenvalues / model.total_variance


def spe(model: PcaModel, data: np.ndarray) -> np.ndarray:
    """Squared prediction error: distance from the principal subspace, per row."""
    centered = _rows(model, data) - model.mean
    residual = centered - (centered @ model.loadings.T) @ model.loadings
    return np.sum(residual * residual, axis=1)
