"""Command-line entry point for experiments, verification, and reporting.

Subcommands:

  train      run one continual-learning experiment, write a run directory
  cdcl       run the cross-dataset protocol for all learner modes
  gradcheck  verify analytic gradients against central finite differences
  sweep      repeat a training run along one hyperparameter axis
  report     merge run directories (or bundled reference fixtures) into tables

Modes are presets of one learner: attriclip (the bank), shared_prompt (a
one-entry bank without the key term) and zero_shot (no bank, no training).

Exit codes: 0 success, 1 configuration error, 2 data error, 3 numeric failure;
a task that fails mid-sequence exits with the code of its cause. Every
command is a deterministic function of (config, seed, input files):
rerunning produces byte-identical metric JSON.

Typical usage:

  attribank train --config run.json --out runs/base
  attribank sweep --config run.json --out runs/sweep_c --axis C --values 1,3,5
  attribank report runs/base runs/sweep_c/value_3
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import pathlib
import re
import sys
from datetime import datetime, timezone
from importlib import resources

import numpy as np

from . import __version__
from . import autodiff as ad
from . import data_io as dio
from .evaluation import AccuracyMatrix, average_accuracy, run_cdcl
from .objective import DISTANCES, total_loss
from .trainer import MODES, SequenceError, TrainConfig, forward, init_state, preset, run_sequence
from .util import canonical_json, content_hash, dump_json


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Options are spelled out in full: an abbreviation would change meaning
    # when an option sharing its prefix is added. Subparsers are _Parsers too.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # Usage problems are configuration errors (exit 1), not argparse's exit 2.
    def error(self, message):
        raise ConfigError(message)


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


# The keys a data section of each kind may hold besides ``kind``.
_DATA_KEYS = {"synthetic": {"synthetic"}, "file": {"train_path", "test_path"},
              "synthetic_pair": {"a", "b", "shared_attributes"}}


def _load_json(path: str) -> dict:
    """The config at ``path``: an object with only known top-level and data keys."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    data = raw.get("data", {}) if isinstance(raw, dict) else None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: the config and its data section must be JSON objects")
    kind = data.get("kind")  # an unknown kind is reported when the data is built
    allowed = _DATA_KEYS.get(kind, set(data)) if isinstance(kind, str) else set(data)
    unknown = sorted(set(raw) - {"mode", "train", "data"}) + sorted(set(data) - {"kind"} - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {unknown}")
    return raw


def _read_run_json(path: str) -> dict:
    """A JSON object of a run directory; a missing, broken or non-object file is a data error."""
    try:
        with open(path) as f:
            obj = json.load(f)
    except (OSError, ValueError) as e:
        raise dio.DataError(f"{path}: unreadable run file ({e})") from None
    if not isinstance(obj, dict):
        raise dio.DataError(f"{path}: not a JSON object")
    return obj


def _parse_train_config(raw: dict, seed_override=None) -> TrainConfig:
    try:
        cfg = TrainConfig(**raw.get("train", {}))
        if seed_override is not None:
            cfg = dataclasses.replace(cfg, seed=seed_override)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad train config: {e}") from None
    return cfg


def _build_stream(data_cfg: dict):
    kind = data_cfg.get("kind")
    if kind == "synthetic":
        try:
            spec = dio.SyntheticSpec(**data_cfg.get("synthetic", {}))
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad synthetic spec: {e}") from None
        return dio.generate_synthetic(spec)
    if kind == "file":
        for key in ("train_path", "test_path"):
            if not data_cfg.get(key):
                raise ConfigError(f"file data source needs {key}")
        train_path, test_path = data_cfg["train_path"], data_cfg["test_path"]
        if not os.path.exists(train_path):
            raise dio.DataError(f"embedding file not found: {train_path}")
        train, tokens, d = dio.read_embedding_file(train_path)
        if not train:
            raise dio.DataError(f"{train_path}: no training records")
        if not os.path.exists(test_path):
            raise dio.DataError(f"embedding file not found: {test_path}")
        test, test_tokens, test_d = dio.read_embedding_file(test_path)
        if test_d != d:
            raise dio.DataError("train and test files disagree on dimension")
        if len(test_tokens) != len(tokens) or any(
                test_tokens[cid].tobytes() != row.tobytes() for cid, row in tokens.items()):
            raise dio.DataError("train and test files disagree on the class-token table")
        return dio.assemble_stream(train, test, tokens, d)
    raise ConfigError(f"unknown data kind {kind!r}")


def _data_hash(data_cfg: dict) -> str:
    """Hash of the data section and, for ``kind: file``, of the files' bytes."""
    paths = ([data_cfg["train_path"], data_cfg["test_path"]] if data_cfg.get("kind") == "file"
             else [])
    return content_hash(canonical_json(data_cfg).encode(),
                        *(content_hash(pathlib.Path(p).read_bytes()) for p in paths))


def _build_stream_pair(data_cfg: dict):
    kind = data_cfg.get("kind")
    if kind == "synthetic_pair":
        shared = data_cfg.get("shared_attributes", 0)
        if isinstance(shared, bool) or not isinstance(shared, int):
            raise ConfigError(f"shared_attributes must be an integer, got {shared!r}")
        try:
            return dio.generate_synthetic_pair(dio.SyntheticSpec(**data_cfg["a"]),
                                               dio.SyntheticSpec(**data_cfg["b"]), shared)
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"bad synthetic_pair spec: {e}") from None
    raise ConfigError(f"cdcl needs data kind synthetic_pair, got {kind!r}")


def _write_manifest(out_dir: str, config_snapshot: dict, cfg: TrainConfig, outputs: dict):
    manifest = {
        "config": config_snapshot,
        "seed": cfg.seed,
        "input_hash": content_hash(canonical_json(config_snapshot).encode()),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
        "tool_version": __version__,
    }
    dump_json(manifest, os.path.join(out_dir, "manifest.json"))


# Only the names the run writes, f"after_task_{t:02d}.ckpt": were after_task_2
# read as task 2 beside after_task_02, the listing order would pick the file.
_CKPT_NAME = re.compile(r"after_task_(\d\d|[1-9]\d{2,})\.ckpt")


def cmd_train(args) -> int:
    _train(_load_json(args.config), args.out, args.mode, args.seed, args.resume)
    return 0


def _train(raw: dict, out: str, mode: str | None, seed: int | None, resume: bool) -> dict:
    """Run the experiment ``raw`` describes into the run directory ``out``; returns its metrics.

    A bad config raises ``ConfigError`` before any directory is created.
    """
    cfg = _parse_train_config(raw, seed)
    mode = mode or raw.get("mode", "attriclip")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    stream = _build_stream(raw.get("data", {}))
    for task in stream.tasks:
        if not task.test:
            raise dio.DataError(f"task {task.task_id} has no test samples")
    data_hash = _data_hash(raw.get("data", {}))

    os.makedirs(os.path.join(out, "checkpoints"), exist_ok=True)
    os.makedirs(os.path.join(out, "task_reports"), exist_ok=True)

    cfg = preset(mode, cfg)
    state = init_state(mode, cfg, stream)
    matrix = None
    start_task = 0
    if resume:
        ckpts = {int(m.group(1)): m.group(0) for m in
                 map(_CKPT_NAME.fullmatch, os.listdir(os.path.join(out, "checkpoints"))) if m}
        if ckpts:
            name = ckpts[max(ckpts)]
            built = dio.encoder_meta(state.encoders)
            state, ckpt_cfg = dio.read_checkpoint(os.path.join(out, "checkpoints", name))
            if state.mode != mode:
                raise ConfigError(f"--resume: {name} was written in mode {state.mode!r}, "
                                  f"not {mode!r}")
            if ckpt_cfg != cfg:
                raise ConfigError(f"--resume: {name} was written with {ckpt_cfg}, not {cfg}")
            if state.data_hash != data_hash:
                raise ConfigError(f"--resume: {name} was written for another data section")
            if not state.tasks_done == max(ckpts) + 1 <= len(stream.tasks):
                raise dio.DataError(f"--resume: {name} records {state.tasks_done} tasks done; its "
                                    f"name says {max(ckpts) + 1}, the stream has {len(stream.tasks)}")
            held = dio.encoder_meta(state.encoders)
            if held != built:
                raise dio.DataError(f"--resume: {name} holds the encoders {held}, "
                                    f"not the run's {built}")
            seen = [cid for task in stream.tasks[:state.tasks_done] for cid in task.class_ids]
            if sorted(state.class_tokens) != sorted(seen) or not all(
                    np.array_equal(state.class_tokens[cid], stream.class_tokens[cid]) for cid in seen):
                raise dio.DataError(f"--resume: {name} does not hold the class tokens of the "
                                    f"stream's first {state.tasks_done} tasks")
            matrix_path = os.path.join(out, "accuracy_matrix.json")
            try:
                matrix = AccuracyMatrix.from_dict(_read_run_json(matrix_path))
            except (KeyError, TypeError, ValueError) as e:
                raise dio.DataError(f"{matrix_path}: malformed accuracy matrix ({e})") from None
            if matrix.num_tasks != len(stream.tasks):
                raise dio.DataError(f"{matrix_path}: {matrix.num_tasks} tasks, "
                                    f"the stream has {len(stream.tasks)}")
            start_task = state.tasks_done
    state.data_hash = data_hash

    # The checkpoint is written last: it marks the task done only once the
    # task's report and matrix row are on disk.
    def hook(st, t, m, report):
        dump_json(report, os.path.join(out, "task_reports", f"task_{t:02d}.json"))
        dump_json(m.to_dict(), os.path.join(out, "accuracy_matrix.json"))
        dio.write_checkpoint(st, cfg, os.path.join(out, "checkpoints", f"after_task_{t:02d}.ckpt"))

    matrix, state = run_sequence(stream, cfg, eval_hooks=[hook], state=state,
                                 matrix=matrix, start_task=start_task, mode=mode)

    with open(os.path.join(out, "accuracy_matrix.csv"), "w", newline="") as f:
        f.write(matrix.to_csv(f"{mode}_seed{cfg.seed}"))
    metrics = {
        "mode": mode,
        "seed": cfg.seed,
        "average_accuracy_per_task": [average_accuracy(matrix, t)
                                      for t in range(1, matrix.num_tasks + 1)],
        "final_average_accuracy": average_accuracy(matrix, matrix.num_tasks),
        "matrix": matrix.to_dict(),
    }
    dump_json(metrics, os.path.join(out, "metrics.json"))
    _write_manifest(out, raw, cfg, {
        "metrics": "metrics.json",
        "matrix_json": "accuracy_matrix.json",
        "matrix_csv": "accuracy_matrix.csv",
    })
    print(f"final average accuracy: {metrics['final_average_accuracy']:.2f}")
    return metrics


def cmd_cdcl(args) -> int:
    raw = _load_json(args.config)
    cfg = _parse_train_config(raw, args.seed)
    mode = args.mode or raw.get("mode")
    if mode is not None and mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    stream_a, stream_b = _build_stream_pair(raw.get("data", {}))
    modes = [mode] if mode else list(MODES)

    out = args.out
    os.makedirs(out, exist_ok=True)
    rows = []
    reports = {}
    for mode in modes:
        report = run_cdcl(stream_a, stream_b, cfg, mode=mode)
        reports[mode] = dataclasses.asdict(report)
        rows.append([mode, 0, f"{report.acc_scratch_b:.2f}", f"{report.acc_a2b_on_b:.2f}",
                     f"{report.ft:+.2f}", f"{report.acc_scratch_a:.2f}",
                     f"{report.acc_a2b_on_a:.2f}", f"{report.bt:+.2f}",
                     f"{report.acc_joint:.2f}"])
    dump_json({"seed": cfg.seed, "reports": reports}, os.path.join(out, "cdcl_report.json"))
    with open(os.path.join(out, "cdcl_table.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["method", "memory", "scratch_b", "transferred_b", "ft",
                         "scratch_a", "transferred_a", "bt", "joint"])
        writer.writerows(rows)
    _write_manifest(out, raw, cfg, {"report": "cdcl_report.json", "table": "cdcl_table.csv"})
    for row in rows:
        print(" ".join(str(x) for x in row))
    return 0


# ---------------------------------------------------------------------------
# gradient verification


def _pinned_objective(state, samples, cfg):
    """The training objective of ``state`` with the selections pinned at its current point."""
    selections = forward(state, samples, cfg)[3]

    def loss(_):
        l_m, l_k, l_p, _ = forward(state, samples, cfg, selections)
        return total_loss(l_m, l_k, l_p, cfg.lambda_k, cfg.lambda_p)

    return loss


def gradient_check_report(seed: int, distance: str = "cosine") -> dict:
    """Max relative gradient error per parameter group, on one small fixed problem.

    Every group is checked through ``trainer.forward`` with the selections
    pinned at the base point: the hard top-C choice and the triplet negative
    it carries stay fixed, so central differences measure the same locally
    smooth branch the analytic (stop-gradient) gradients live on.
    """
    stream = dio.generate_synthetic(dio.SyntheticSpec(
        num_latent_attributes=4, attributes_per_class=2, num_tasks=1, classes_per_task=3,
        samples_per_class=2, feature_dim=16, noise_sigma=0.1, seed=seed))
    samples = stream.tasks[0].train[:2]
    base = TrainConfig(n=4, m=3, c=3, tau=0.05, seed=seed, distance=distance)
    attr, shared = (init_state(mode, base, stream) for mode in ("attriclip", "shared_prompt"))
    for state in (attr, shared):
        for cid in stream.tasks[0].class_ids:
            state.register_class(cid, stream.class_tokens[cid])
    loss = _pinned_objective(attr, samples, base)
    shared_loss = _pinned_objective(shared, samples, preset("shared_prompt", base))
    return {"keys": ad.finite_difference_check(loss, attr.bank.keys),
            "prompts": ad.finite_difference_check(loss, attr.bank.prompts),
            "shared_prompt": ad.finite_difference_check(shared_loss, shared.bank.prompts)}


def cmd_gradcheck(args) -> int:
    report = gradient_check_report(args.seed, args.distance)
    tol = 1e-4
    ok = True
    for group, err in report.items():
        status = "ok" if err <= tol else "FAIL"
        print(f"{group}: max relative error {err:.3e} [{status}]")
        ok = ok and err <= tol
    if not ok:
        print("gradient check failed", file=sys.stderr)
        return 3
    return 0


_SWEEP_AXES = {"M": "m", "N": "n", "C": "c", "lambda_k": "lambda_k",
               "lambda_p": "lambda_p", "distance": "distance"}


def cmd_sweep(args) -> int:
    raw = _load_json(args.config)
    if args.axis not in _SWEEP_AXES:
        raise ConfigError(f"axis must be one of {sorted(_SWEEP_AXES)}, got {args.axis!r}")
    field = _SWEEP_AXES[args.axis]
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value")

    os.makedirs(args.out, exist_ok=True)
    rows = []
    for value in values:
        sub_raw = json.loads(json.dumps(raw))
        train = sub_raw.setdefault("train", {})
        if field == "distance":
            train["distance"] = value
        else:
            try:
                train[field] = float(value) if "lambda" in field else int(value)
            except ValueError:
                rows.append([value, "", f"invalid value for axis {args.axis}"])
                continue
        try:
            metrics = _train(sub_raw, os.path.join(args.out, f"value_{value}"),
                             args.mode, args.seed, resume=False)
            rows.append([value, f"{metrics['final_average_accuracy']:.4f}", ""])
        except (ConfigError, ValueError) as e:
            rows.append([value, "", str(e)])
    with open(os.path.join(args.out, "sweep.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([args.axis, "final_average_accuracy", "error"])
        writer.writerows(rows)
    for row in rows:
        print(",".join(str(x) for x in row))
    return 0


def _load_reference_tables() -> dict:
    with resources.files("attribank.fixtures").joinpath("reference_tables.json").open() as f:
        return json.load(f)


def cmd_report(args) -> int:
    if args.fixtures:
        tables = _load_reference_tables()
        rows = []
        for name in ("forward_transfer", "backward_transfer"):  # fixture table names
            for row in tables[name]["rows"]:
                recomputed = row["transferred"] - row["scratch"]
                rows.append([name, row["method"], row["memory"], row["scratch"],
                             row["transferred"], row["printed"], round(recomputed, 2),
                             "ok" if abs(recomputed - row["printed"]) <= 0.05 else "MISMATCH"])
        print("table,method,memory,scratch,transferred,printed,recomputed,check")
        for row in rows:
            print(",".join(str(x) for x in row))
        return 0

    loaded = []
    for run_dir in args.run_dirs:
        manifest_path = os.path.join(run_dir, "manifest.json")
        if not os.path.exists(manifest_path):
            print(f"warning: {run_dir} has no manifest, skipping", file=sys.stderr)
            continue
        entry = {"run": os.path.basename(os.path.normpath(run_dir))}
        metrics_path = os.path.join(run_dir, "metrics.json")
        if os.path.exists(metrics_path):
            metrics = _read_run_json(metrics_path)
            entry.update({"mode": metrics.get("mode"), "seed": metrics.get("seed"),
                          "final_average_accuracy": metrics.get("final_average_accuracy")})
        cdcl_path = os.path.join(run_dir, "cdcl_report.json")
        if os.path.exists(cdcl_path):
            reports = _read_run_json(cdcl_path).get("reports", {})
            if not (isinstance(reports, dict) and all(isinstance(r, dict) for r in reports.values())):
                raise dio.DataError(f"{cdcl_path}: reports must map each mode to an object")
            for mode, rep in reports.items():
                entry[f"{mode}_ft"] = rep.get("ft")
                entry[f"{mode}_bt"] = rep.get("bt")
        loaded.append(entry)
    if not loaded:
        print("no runs loaded", file=sys.stderr)
        return 1
    header = ["run"] + sorted({k for e in loaded for k in e} - {"run"})
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    for e in loaded:
        writer.writerow([e.get(k, "") for k in header])
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="attribank", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one continual-learning experiment")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--mode", choices=MODES)
    p_train.add_argument("--seed", type=_seed)
    p_train.add_argument("--resume", action="store_true",
                         help="continue from the latest checkpoint in --out")
    p_train.set_defaults(fn=cmd_train)

    p_cdcl = sub.add_parser("cdcl", help="cross-dataset continual learning protocol")
    p_cdcl.add_argument("--config", required=True)
    p_cdcl.add_argument("--out", required=True)
    p_cdcl.add_argument("--mode", choices=MODES, help="restrict to one mode")
    p_cdcl.add_argument("--seed", type=_seed)
    p_cdcl.set_defaults(fn=cmd_cdcl)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_grad.add_argument("--seed", type=_seed, default=0)
    p_grad.add_argument("--distance", choices=DISTANCES, default="cosine")
    p_grad.set_defaults(fn=cmd_gradcheck)

    p_sweep = sub.add_parser("sweep", help="one run per value along a hyperparameter axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--mode", choices=MODES)
    p_sweep.add_argument("--seed", type=_seed)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_report = sub.add_parser("report", help="merge run directories into a table")
    p_report.add_argument("run_dirs", nargs="*")
    p_report.add_argument("--fixtures", action="store_true",
                          help="recompute transfer columns of the bundled reference tables")
    p_report.set_defaults(fn=cmd_report)
    return parser


_EXIT_CODES = ((ConfigError, "config error", 1), (dio.DataError, "data error", 2),
               (ad.NumericError, "numeric failure", 3))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ConfigError, dio.DataError, ad.NumericError, SequenceError) as e:
        # A task that fails mid-sequence exits with the code of its cause.
        cause = e.__cause__ if isinstance(e, SequenceError) else e
        for kind, label, code in _EXIT_CODES:
            if isinstance(cause, kind):
                print(f"{label}: {e}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
