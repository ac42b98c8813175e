"""Learnable audio frontend: Gabor-initialized time-domain filterbanks and
per-channel energy normalization, trained jointly with an LSTM-attention
classifier from raw waveforms, next to a fixed log-mel reference path."""
