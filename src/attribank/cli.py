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
  attribank report runs/base runs/sweep_c/value_3 --format csv
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from datetime import datetime, timezone
from importlib import resources

from . import __version__
from . import autodiff as ad
from . import data_io as dio
from .evaluation import AccuracyMatrix, average_accuracy, run_cdcl
from .objective import total_loss
from .trainer import MODES, SequenceError, TrainConfig, forward, init_state, preset, run_sequence
from .util import canonical_json, content_hash, dump_json


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Usage problems are configuration errors (exit 1), not argparse's exit 2.
    def error(self, message):
        raise ConfigError(message)


def _load_json(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None


def _parse_train_config(raw: dict, seed_override=None) -> TrainConfig:
    try:
        cfg = TrainConfig.from_dict(raw.get("train", {}))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad train config: {e}") from None
    if seed_override is not None:
        d = cfg.as_dict()
        d["seed"] = seed_override
        cfg = TrainConfig.from_dict(d)
    return cfg


def _build_stream(data_cfg: dict):
    kind = data_cfg.get("kind")
    if kind == "synthetic":
        try:
            spec = dio.SyntheticSpec(**data_cfg.get("synthetic", {}))
        except TypeError as e:
            raise ConfigError(f"bad synthetic spec: {e}") from None
        return dio.generate_synthetic(spec)
    if kind == "file":
        train_path = data_cfg.get("train_path")
        if not train_path:
            raise ConfigError("file data source needs train_path")
        if not os.path.exists(train_path):
            raise dio.DataError(f"embedding file not found: {train_path}")
        train, tokens, d = dio.read_embedding_file(train_path)
        if not train:
            raise dio.DataError(f"{train_path}: no training records")
        test_path = data_cfg.get("test_path")
        if test_path:
            if not os.path.exists(test_path):
                raise dio.DataError(f"embedding file not found: {test_path}")
            test, tokens2, d2 = dio.read_embedding_file(test_path)
            if d2 != d:
                raise dio.DataError("train and test files disagree on dimension")
        else:
            test = []
        return dio.assemble_stream(train, test, tokens, d)
    raise ConfigError(f"unknown data kind {kind!r}")


def _build_stream_pair(data_cfg: dict):
    kind = data_cfg.get("kind")
    if kind == "synthetic_pair":
        try:
            spec_a = dio.SyntheticSpec(**data_cfg["a"])
            spec_b = dio.SyntheticSpec(**data_cfg["b"])
        except (KeyError, TypeError) as e:
            raise ConfigError(f"bad synthetic_pair spec: {e}") from None
        return dio.generate_synthetic_pair(spec_a, spec_b,
                                           int(data_cfg.get("shared_attributes", 0)))
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


def _matrix_csv(matrix: AccuracyMatrix, label: str, path: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(matrix.to_csv(label))


_CKPT_NAME = re.compile(r"after_task_(\d+)\.ckpt")


def cmd_train(args) -> int:
    raw = _load_json(args.config)
    cfg = _parse_train_config(raw, args.seed)
    mode = args.mode or raw.get("mode", "attriclip")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    stream = _build_stream(raw.get("data", {}))
    for task in stream.tasks:
        if not task.test:
            raise dio.DataError(f"task {task.task_id} has no test samples")

    out = args.out
    os.makedirs(os.path.join(out, "checkpoints"), exist_ok=True)
    os.makedirs(os.path.join(out, "task_reports"), exist_ok=True)

    cfg = preset(mode, cfg)
    state = None
    matrix = None
    start_task = 0
    if args.resume:
        ckpts = {int(m.group(1)): m.group(0) for m in
                 map(_CKPT_NAME.fullmatch, os.listdir(os.path.join(out, "checkpoints"))) if m}
        if ckpts:
            name = ckpts[max(ckpts)]
            state, ckpt_cfg = dio.read_checkpoint(os.path.join(out, "checkpoints", name))
            if state.mode != mode:
                raise ConfigError(f"--resume: {name} was written in mode {state.mode!r}, "
                                  f"not {mode!r}")
            if ckpt_cfg != cfg:
                raise ConfigError(f"--resume: {name} was written with config "
                                  f"{ckpt_cfg.as_dict()}, not {cfg.as_dict()}")
            matrix = AccuracyMatrix.from_dict(
                _load_json(os.path.join(out, "accuracy_matrix.json")))
            start_task = state.tasks_done

    # The checkpoint is written last: it marks the task done only once the
    # task's report and matrix row are on disk.
    def hook(st, t, m, report):
        dump_json(report, os.path.join(out, "task_reports", f"task_{t:02d}.json"))
        dump_json(m.to_dict(), os.path.join(out, "accuracy_matrix.json"))
        dio.write_checkpoint(st, cfg, os.path.join(out, "checkpoints", f"after_task_{t:02d}.ckpt"))

    matrix, state = run_sequence(stream, cfg, eval_hooks=[hook], state=state,
                                 matrix=matrix, start_task=start_task, mode=mode)

    label = f"{mode}_seed{cfg.seed}"
    _matrix_csv(matrix, label, os.path.join(out, "accuracy_matrix.csv"))
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
    return 0


def cmd_cdcl(args) -> int:
    raw = _load_json(args.config)
    cfg = _parse_train_config(raw, args.seed)
    stream_a, stream_b = _build_stream_pair(raw.get("data", {}))
    modes = [args.mode] if args.mode else list(MODES)

    out = args.out
    os.makedirs(out, exist_ok=True)
    rows = []
    reports = {}
    for mode in modes:
        report = run_cdcl(stream_a, stream_b, cfg, mode=mode)
        reports[mode] = report.as_dict()
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


def _pinned_objective(state, samples, cfg, corrupt: float):
    """The training objective of ``state`` with the routing pinned at its current point."""
    routing = forward(state, samples, cfg)[3]
    params = state.trainable_parameters()

    def loss(_):
        l_m, l_k, l_p, _ = forward(state, samples, cfg, routing)
        total = total_loss(l_m, l_k, l_p, cfg.lambda_k, cfg.lambda_p)
        if corrupt:  # a constant to the tape, so no analytic gradient sees its slope
            total = ad.add(total, corrupt * sum(float(p.values.sum()) for p in params))
        return total

    return loss


def gradient_check_report(seed: int, n: int, m: int, d: int, k: int, batch: int,
                          distance: str = "cosine", corrupt: float = 0.0) -> dict:
    """Max relative gradient error per parameter group, at small sizes.

    Every group is checked through ``trainer.forward`` with the routing
    pinned at the base point: the hard top-C choice and the triplet negative
    stay fixed, so central differences measure the same locally smooth
    branch the analytic (stop-gradient) gradients live on. ``corrupt`` adds
    that much times the sum of all parameters to the loss, out of the tape's
    sight, so every check must fail.
    """
    spec = dio.SyntheticSpec(num_latent_attributes=max(4, k), attributes_per_class=2,
                             num_tasks=1, classes_per_task=k, samples_per_class=max(2, batch),
                             feature_dim=d, noise_sigma=0.1, seed=seed)
    stream = dio.generate_synthetic(spec)
    samples = stream.tasks[0].train[:batch]
    base = TrainConfig(n=n, m=m, c=min(3, n - 1) if distance == "triplet" else min(3, n),
                       tau=0.05, seed=seed, distance=distance)
    attr, shared = (init_state(mode, base, stream) for mode in ("attriclip", "shared_prompt"))
    for state in (attr, shared):
        for cid in stream.tasks[0].class_ids:
            state.register_class(cid, stream.class_tokens[cid])
    loss = _pinned_objective(attr, samples, base, corrupt)
    shared_loss = _pinned_objective(shared, samples, preset("shared_prompt", base), corrupt)
    return {"keys": ad.finite_difference_check(loss, attr.bank.keys),
            "prompts": ad.finite_difference_check(loss, attr.bank.prompts),
            "shared_prompt": ad.finite_difference_check(shared_loss, shared.bank.prompts)}


def cmd_gradcheck(args) -> int:
    if args.n > 6 or args.m > 4 or args.d > 16 or args.k > 4:
        raise ConfigError("gradcheck sizes capped at n<=6, m<=4, d<=16, k<=4")
    report = gradient_check_report(args.seed, args.n, args.m, args.d, args.k,
                                   args.batch, args.distance,
                                   corrupt=0.01 if args.corrupt else 0.0)
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
        sub_dir = os.path.join(args.out, f"value_{value}")
        sub_args = argparse.Namespace(config=args.config, out=sub_dir, mode=args.mode,
                                      seed=args.seed, resume=False)
        try:
            cfg = _parse_train_config(sub_raw, args.seed)
        except ConfigError as e:
            rows.append([value, "", str(e)])
            continue
        tmp_cfg_path = os.path.join(sub_dir, "config.json")
        os.makedirs(sub_dir, exist_ok=True)
        dump_json(sub_raw, tmp_cfg_path)
        sub_args.config = tmp_cfg_path
        try:
            cmd_train(sub_args)
            metrics = _load_json(os.path.join(sub_dir, "metrics.json"))
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
        if args.format == "json":
            print(json.dumps(rows, indent=2))
        else:
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
            metrics = _load_json(metrics_path)
            entry.update({"mode": metrics.get("mode"), "seed": metrics.get("seed"),
                          "final_average_accuracy": metrics.get("final_average_accuracy")})
        cdcl_path = os.path.join(run_dir, "cdcl_report.json")
        if os.path.exists(cdcl_path):
            cdcl = _load_json(cdcl_path)
            for mode, rep in cdcl.get("reports", {}).items():
                entry[f"{mode}_ft"] = rep.get("ft")
                entry[f"{mode}_bt"] = rep.get("bt")
        loaded.append(entry)
    if not loaded:
        print("no runs loaded", file=sys.stderr)
        return 1
    keys = sorted({k for e in loaded for k in e} - {"run"})
    header = ["run"] + keys
    if args.format == "json":
        print(json.dumps(loaded, indent=2, sort_keys=True))
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for e in loaded:
            writer.writerow([e.get(k, "") for k in header])
        print(buf.getvalue(), end="")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="attribank", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one continual-learning experiment")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--mode", choices=MODES)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--resume", action="store_true",
                         help="continue from the latest checkpoint in --out")
    p_train.set_defaults(fn=cmd_train)

    p_cdcl = sub.add_parser("cdcl", help="cross-dataset continual learning protocol")
    p_cdcl.add_argument("--config", required=True)
    p_cdcl.add_argument("--out", required=True)
    p_cdcl.add_argument("--mode", choices=MODES, help="restrict to one mode")
    p_cdcl.add_argument("--seed", type=int)
    p_cdcl.set_defaults(fn=cmd_cdcl)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--n", type=int, default=4)
    p_grad.add_argument("--m", type=int, default=3)
    p_grad.add_argument("--d", type=int, default=16)
    p_grad.add_argument("--k", type=int, default=3)
    p_grad.add_argument("--batch", type=int, default=2)
    p_grad.add_argument("--distance", choices=("cosine", "mse", "triplet"), default="cosine")
    p_grad.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p_grad.set_defaults(fn=cmd_gradcheck)

    p_sweep = sub.add_parser("sweep", help="one run per value along a hyperparameter axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--axis", required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--mode", choices=MODES)
    p_sweep.add_argument("--seed", type=int)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_report = sub.add_parser("report", help="merge run directories into a table")
    p_report.add_argument("run_dirs", nargs="*")
    p_report.add_argument("--format", choices=("csv", "json"), default="csv")
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
