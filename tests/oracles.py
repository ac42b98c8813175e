"""Reference features shared by the tests."""

import numpy as np

from wavefront.melfb import mel_energy_features


def log_mel_features(w, matrix, win_len: int, hop: int) -> np.ndarray:
    """log(1 + mel energy), the compression of the mel frontend: zero input
    gives exactly zero output."""
    return np.log1p(mel_energy_features(w, matrix, win_len, hop).values)
