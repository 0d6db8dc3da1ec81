"""One measured iteration of one workload, in a fresh interpreter.

Started by run.py with the checkout's `src` on PYTHONPATH and the BLAS
thread count fixed in the environment. Times `import replaykit` plus the
workload's input generation (set-up), then the pipeline itself (wall),
both with speed probes (speed.py) interleaved, then checks the outputs it
wrote and writes one result JSON document.
With --spans it also installs the layer wrappers from tracing.py, replays
the GMM fits' initialisation and one E-step after the timed window, and
writes the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads as W


class Operations:
    """Attempted and failed operations: pipeline stages, CLI commands and
    output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _load_oracles():
    """tests/oracles.py of the checkout, loaded without writing bytecode."""
    spec = importlib.util.spec_from_file_location(
        "replaykit_test_oracles", Path("tests") / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    previous, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = previous
    return module


def _check_study_pins(ops: Operations, replaykit, pinned: dict) -> None:
    for cls, fields in ((replaykit.StudyConfig, pinned),
                        (replaykit.SynthConfig, pinned["corpus"]),
                        (replaykit.TrainConfig, pinned["train"])):
        names = {f.name for f in dataclasses.fields(cls)}
        ops.record(names == set(fields),
                   f"{cls.__name__} fields {sorted(names)} differ from the "
                   f"pinned {sorted(fields)}")


def _check_cli_pins(ops: Operations, cli, argvs: list[list[str]]) -> None:
    parser = cli.build_parser()
    for argv in argvs:
        given = {a[2:].replace("-", "_") for a in argv if a.startswith("--")}
        known = set(vars(parser.parse_args(argv))) - {"command", "func"}
        ops.record(given == known,
                   f"`{argv[0]}` flags {sorted(known)} differ from the "
                   f"pinned {sorted(given)}")


def _study_config(replaykit, pinned: dict):
    return replaykit.StudyConfig(
        corpus=replaykit.SynthConfig(**pinned["corpus"]),
        train=replaykit.TrainConfig(**pinned["train"]),
        **{k: v for k, v in pinned.items() if k not in ("corpus", "train")})


def _run_cli(cli, argv: list[str], ops: Operations, tracer) -> str:
    """Run one command in-process; returns its standard output."""
    out, err = io.StringIO(), io.StringIO()
    span = (tracer.span(f"cli.{argv[0]}_s") if tracer
            else contextlib.nullcontext())
    with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    ops.record(code == 0, f"`replaykit {argv[0]}` exited {code}: "
                          f"{err.getvalue().strip()}")
    return out.getvalue()


def _read_scores_tsv(path: Path) -> dict[str, tuple[float, str]]:
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        utt_id, score, label = line.split("\t")
        rows[utt_id] = (float(score), label)
    return rows


def collect_outputs(out_dir: Path, oracles) -> dict:
    """Dispersions from the probe reports, per-utterance scores, and each
    score file's EER recomputed by the brute-force oracle."""
    outputs = {"dispersions": {}, "eers": {}, "scores": {}}
    for path in sorted((out_dir / "probes").glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        outputs["dispersions"][path.stem] = doc["dispersion"]
    for path in sorted((out_dir / "scores").glob("*.tsv")):
        rows = _read_scores_tsv(path)
        genuine = [s for s, label in rows.values() if label == "genuine"]
        replay = [s for s, label in rows.values() if label == "replay"]
        outputs["eers"][path.stem] = oracles.eer_brute_force(genuine, replay)
        outputs["scores"][path.stem] = {u: s for u, (s, _) in rows.items()}
    return outputs


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# Both workload runners take the probing flag and return the set-up and
# timed windows' samplers (speed.Sampler) and the EERs the program reported.

def _run_study(name, seed, out_dir, ops, tracer, replaykit, study, probing):
    with speed.Sampler(probing) as setup:
        config = _study_config(replaykit, W.STUDIES[name])

    span = tracer.span("study") if tracer else contextlib.nullcontext()
    report = None
    with speed.Sampler(probing) as timed:
        try:
            with span:
                report = study.run_study(seed, out_dir, config)
        except Exception as exc:  # the failure is counted and reported
            ops.record(False, f"run_study raised {type(exc).__name__}: {exc}")
    if report is None:
        return setup, timed, {}
    ops.record(True, "run_study")
    # run_study names each score file after the leg's cepstral tag.
    reported = {f"{tag.split('+')[0].lower()}_{cov}": result["eer"]
                for tag, by_cov in report.eers.items()
                for cov, result in by_cov.items()}
    return setup, timed, reported


def _run_cli_stages(seed, out_dir, ops, tracer, cli, probing):
    corpus_dir = str(out_dir / "corpus")
    with speed.Sampler(probing) as setup:
        _run_cli(cli, W.cli_synth_argv(corpus_dir, seed), ops, tracer)

    printed = {}
    with speed.Sampler(probing) as timed:
        for argv in W.cli_stage_argvs(corpus_dir, str(out_dir), seed):
            stdout = _run_cli(cli, argv, ops, tracer)
            if argv[0] == "eval" and stdout.startswith("EER: "):
                stem = Path(argv[argv.index("--scores") + 1]).stem
                printed[stem] = float(stdout.split()[1].rstrip("%")) / 100.0
    return setup, timed, printed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=W.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="write the traced run's spans here")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)

    start = time.perf_counter()
    import replaykit
    from replaykit import cli, study
    import_s = time.perf_counter() - start

    import numpy
    import scipy

    speed.warm_up()
    ops = Operations()
    tracer = tracing.Tracer() if args.spans else None
    if tracer:
        tracing.install(tracer, study, cli)

    if args.workload in W.STUDIES:
        _check_study_pins(ops, replaykit, W.STUDIES[args.workload])
        setup, timed, reported = _run_study(
            args.workload, args.seed, out_dir, ops, tracer, replaykit, study,
            probing=tracer is None)
        eer_atol = W.ORACLE_EER_ATOL
    else:
        corpus_dir = str(out_dir / "corpus")
        _check_cli_pins(ops, cli, [W.cli_synth_argv(corpus_dir, args.seed)]
                        + W.cli_stage_argvs(corpus_dir, str(out_dir),
                                            args.seed))
        setup, timed, reported = _run_cli_stages(
            args.seed, out_dir, ops, tracer, cli, probing=tracer is None)
        eer_atol = W.CLI_EER_PCT_ATOL / 100.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = timed.raw_s

    layers = None
    if tracer:
        tracing.replay_fits(tracer, replaykit)
        layers = tracing.summarize(tracer, wall_s)
        Path(args.spans).write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "spans": tracer.spans}) + "\n", encoding="utf-8")

    outputs = collect_outputs(out_dir, _load_oracles())
    ops.record(set(outputs["eers"]) == set(reported),
               f"score files {sorted(outputs['eers'])} do not match the "
               f"reported legs {sorted(reported)}")
    for stem, eer in sorted(outputs["eers"].items()):
        if stem in reported:
            ops.record(abs(eer - reported[stem]) <= eer_atol,
                       f"{stem}: reported EER {reported[stem]!r} but the "
                       f"oracle gives {eer!r}")

    result = {
        "raw_setup_s": import_s + setup.raw_s,
        "raw_wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": ops.attempted,
        "failures": ops.failures,
        "digest": _digest(out_dir),
        "outputs": outputs,
        "layers": layers,
        "env": {"python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__,
                "nproc": os.cpu_count(),
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
    }
    if tracer is None:
        # The import comes before numpy is loaded, so the probe right
        # after it gives its speed.
        result["setup_s"] = (import_s * speed.REFERENCE_S
                             / setup.first_probe_s + setup.scaled_s)
        result["wall_s"] = timed.scaled_s
    Path(args.result).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
