"""Learnable audio frontend: Gabor-initialized time-domain filterbanks and
per-channel energy normalization, trained jointly with an LSTM-attention
classifier from raw waveforms, next to a fixed log-mel reference path."""

from .data import (
    LABELS,
    Manifest,
    SyntheticSpec,
    Utterance,
    generate_synthetic,
    load_manifest,
    pad_or_trim,
    read_wav,
    save_manifest,
    uar,
    validate_manifest,
    write_wav,
)
from .dsp import (
    Waveform,
    Window,
    frame_signal,
    hanning_window,
    power_spectrum,
    preemphasis,
    squared_hanning_window,
)
from .errors import ConfigError, FormatError, NumericError, ValidationError
from .melfb import (
    FeatureMap,
    MelConfig,
    MelFilterbankMatrix,
    log_mel_features,
    mean_variance_normalize,
    mel_energy_features,
    mel_filterbank_matrix,
    mel_scale,
    mel_scale_inv,
)
from .net import (
    FRONTENDS,
    ModelParams,
    OptimizerState,
    RunConfig,
    TrainState,
    attention_forward,
    cross_entropy_loss,
    evaluate,
    load_checkpoint,
    lstm_forward,
    make_run_config,
    make_train_state,
    prepare_waveform,
    run_gradcheck,
    save_checkpoint,
    sgd_momentum_step,
    state_from_checkpoint,
    train_run,
)
from .pcen import (
    PcenParams,
    compression_report,
    init_pcen_params,
    pcen_backward,
    pcen_forward,
    smoother,
)
from .tdfb import (
    GaborParams,
    TdfbParams,
    center_frequency_report,
    gabor_impulse_response,
    gabor_params_from_mel,
    init_tdfb_params,
    tdfb_backward,
    tdfb_forward,
)

__version__ = "0.1.0"
