"""Replay-attack detection pipeline with warped filterbank features,
per-band discriminability probing, GMM scoring, and EER evaluation."""

from .archive import (
    ArchiveReader,
    ArchiveWriter,
    FeatureArchive,
    read_archive,
    write_archive,
)
from .corpus import (
    AudioSignal,
    CorpusSignals,
    DeviceProfile,
    Manifest,
    SynthConfig,
    UtteranceMeta,
    parse_manifest,
    read_wav,
    save_device_profiles,
    synth_corpus,
    write_manifest,
    write_wav,
)
from .errors import (
    ArchiveFormatError,
    DegenerateBandError,
    EmptyUtteranceError,
    FeatureMismatchError,
    ManifestError,
    ModelFormatError,
    ReplaykitError,
    ScoreFormatError,
    SingularComponentError,
    WavFormatError,
)
from .filterbank import (
    ExtractionConfig,
    FeatureKind,
    FeatureMatrix,
    WarpKind,
    append_deltas,
    build_filterbank,
    cepstral_features,
    fbank_features,
    warp,
)
from .fratio import (
    FRatioPattern,
    MomentTable,
    ProbeReport,
    compare_datasets,
    probe_factor,
)
from .gmm import (
    Gmm,
    GmmPairModel,
    TrainConfig,
    load_pair_model,
    save_pair_model,
    score_utterance,
    train_gmm,
)
from .metrics import ScoreRecord, compute_eer, read_scores, write_scores
from .spectrum import (
    FrameMatrix,
    SpectrumWorkspace,
    dct_basis,
    frame_signal,
    power_spectrum,
)
from .study import (
    StudyConfig,
    StudyReport,
    extract_features,
    feature_tag,
    iter_features,
    run_study,
)

__version__ = "0.1.0"
