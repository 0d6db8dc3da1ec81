"""Pinned workload definitions.

Every field of StudyConfig, SynthConfig and TrainConfig, and every flag of
every CLI command, is written out here, so that a change to a library
default cannot silently change a workload. The worker checks that the
pinned field and flag sets still match the library's own and fails the
run if they do not.

This module imports nothing from replaykit or numpy: the worker times the
first `import replaykit` of a fresh interpreter as part of set-up.
"""

REFERENCE_SEED = 1

# Output tolerances for the reference comparison. EM sums may be reordered
# by a later optimisation; these leave many orders of magnitude of room
# over float64 rounding while still catching any change in behaviour.
SCORE_RTOL = 1e-6
SCORE_ATOL = 1e-9
EER_ATOL = 1e-6
# The program's EERs against the brute-force oracle: run_study reports
# full precision, `replaykit eval` prints a percentage with two decimals.
ORACLE_EER_ATOL = 1e-9
CLI_EER_PCT_ATOL = 0.005 + 1e-9

_EXTRACTION = {"bands": 23, "frame_len": 400, "hop": 160, "n_fft": 512,
               "delta_window": 2}

STUDIES = {
    # The GMM layer does nearly all the work at the paper-scale K=64 and
    # d=26, for both covariance kinds; the corpus is tiny.
    "study-em": {
        "corpus": {"n_speakers": 2, "n_phrases": 3, "n_train_devices": 2,
                   "n_heldout_devices": 2, "utt_seconds": 1.5, "reps": 1},
        **_EXTRACTION,
        "n_comp": 64,
        # A zero tolerance runs every fit to max_iters, so the EM work is
        # the same on every seed (at 1e-5 some full-covariance fits stop
        # early on some seeds, which spreads wall time across seeds).
        "train": {"max_iters": 10, "ll_tolerance": 0.0,
                  "variance_floor_factor": 1e-4},
    },
    # Many utterances through synthesis, spectra, filterbanks, archive
    # writes and probes; K=2 and one EM iteration keep EM small, while
    # per-utterance scoring calls stay numerous and overhead-bound.
    "study-frontend": {
        "corpus": {"n_speakers": 5, "n_phrases": 4, "n_train_devices": 1,
                   "n_heldout_devices": 5, "utt_seconds": 5.0, "reps": 1},
        **_EXTRACTION,
        "n_comp": 2,
        "train": {"max_iters": 1, "ll_tolerance": 1e-5,
                  "variance_floor_factor": 1e-4},
    },
}

CLI_WORKLOAD = "cli-stages"
WORKLOADS = (*STUDIES, CLI_WORKLOAD)

WARPS = ("linear", "mel", "imel")
FACTORS = ("speaker", "phrase", "device")
COV_KINDS = ("diag", "full")
# The warp whose cepstra-delta archive the CLI detection legs use.
CLI_DETECTION_WARP = "mel"


def cli_synth_argv(corpus_dir: str, seed: int) -> list[str]:
    """Set-up of the CLI workload: the corpus synthesised to disk."""
    return ["synth", "--out", corpus_dir, "--seed", str(seed),
            "--speakers", "6", "--phrases", "4", "--train-devices", "3",
            "--heldout-devices", "3", "--reps", "1", "--utt-seconds", "2.0"]


def cli_stage_argvs(corpus_dir: str, work_dir: str,
                    seed: int) -> list[list[str]]:
    """The timed CLI command sequence, in order."""
    manifest = f"{corpus_dir}/manifest.tsv"
    argvs = []
    for warp in WARPS:
        for feature in ("fbank", "cepstra-delta"):
            argvs.append([
                "extract", "--manifest", manifest, "--warp", warp,
                "--feature", feature, "--bands", "23", "--frame-ms", "25.0",
                "--hop-ms", "10.0", "--nfft", "512", "--delta-window", "2",
                "--out", f"{work_dir}/features/{warp}_{feature}.rpfa"])
    for warp in WARPS:
        for factor in FACTORS:
            argvs.append([
                "probe", "--archive", f"{work_dir}/features/{warp}_fbank.rpfa",
                "--manifest", manifest, "--factor", factor,
                "--out", f"{work_dir}/probes/{factor}_{warp}.tsv"])
    archive = f"{work_dir}/features/{CLI_DETECTION_WARP}_cepstra-delta.rpfa"
    for cov in COV_KINDS:
        argvs.append([
            "train", "--archive", archive, "--manifest", manifest,
            "--ncomp", "2", "--cov", cov, "--seed", str(seed),
            "--max-iters", "2", "--ll-tolerance", "1e-05",
            "--out", f"{work_dir}/models/{CLI_DETECTION_WARP}_{cov}.json"])
    for cov in COV_KINDS:
        argvs.append([
            "score", "--archive", archive,
            "--model", f"{work_dir}/models/{CLI_DETECTION_WARP}_{cov}.json",
            "--manifest", manifest,
            "--out", f"{work_dir}/scores/{CLI_DETECTION_WARP}_{cov}.tsv"])
    for cov in COV_KINDS:
        argvs.append([
            "eval", "--scores",
            f"{work_dir}/scores/{CLI_DETECTION_WARP}_{cov}.tsv",
            "--manifest", manifest])
    return argvs
