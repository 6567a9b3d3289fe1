"""The three benchmark workloads, each driven through ``qoe_forge.cli.main``.

A workload prepares its inputs once per process (``prepare``; set-up includes
the imports, which a process pays only once, so the runner repeats it in fresh
processes), then the runner times ``timed_pass`` repeatedly and calls
``check_pass`` after each pass, outside the timed region. Every CLI command
and every output check is one operation; a non-zero exit or a failed check is
one failed operation.

Each pass's deterministic outputs are reduced to one SHA-256 digest. It must
be the same on every pass of a run and, when ``baseline.json`` records one
for the workload and seed, equal to that recorded digest.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import traceback
from pathlib import Path

from qoe_forge import cli
from qoe_forge.data_model import dataset_hash, generate_base_dataset, read_csv
from qoe_forge.demographics import AugmentationConfig, augment_dataset

from layers import CLASSICAL, DEEP

KINDS = CLASSICAL + DEEP
SIDES = ("base", "augmented")

# The paper protocol's corpus: compare's default size and dataset, augment and
# split seeds. paper_compare and the models batch_scoring trains get the workload
# seed only as ``--seed``, so both keep the paper's corpus and run its protocol.
PAPER_DATASET_SEED, PAPER_AUGMENT_SEED, PAPER_SPLIT_SEED = 42, 1, 0

# The paper roster at one tenth of its default loop counts (100 trees, 200
# boosting stages, 40 MLP epochs, 120 TabNet epochs). Every model still runs
# every code path, but a full ``compare`` takes seconds, not 40 s, so a run
# makes several timed passes and reports their median.
MODEL_PARAMS = {
    "random_forest.n_trees": 10,
    "gradient_boosting.n_stages": 20,
    "mlp.epochs": 4,
    "attention_mlp.epochs": 4,
    "tabnet.max_epochs": 12,
}

# Hyperparameters that shrink every model further for the self-tests' tiny runs.
TINY_MODEL_PARAMS = {
    "random_forest.n_trees": 3,
    "gradient_boosting.n_stages": 5,
    "mlp.epochs": 2,
    "attention_mlp.epochs": 2,
    "tabnet.max_epochs": 3,
}


def _model_params(tiny: bool) -> dict:
    return TINY_MODEL_PARAMS if tiny else MODEL_PARAMS


def _write_config(path: Path, keys: dict) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))


def _column(path: Path, name: str) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        idx = next(reader).index(name)
        return [rec[idx] for rec in reader]


def _data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True).encode("utf-8")


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path, tiny: bool = False,
                 expected_digest: str | None = None):
        self.seed = seed
        self.tiny = tiny
        self.expected_digest = expected_digest
        self.digests: list[str] = []
        self.inputs = work / "inputs"
        self.out = work / "pass"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    # -- operations ---------------------------------------------------------

    def cli(self, *argv) -> int:
        """Run one CLI command in-process; stdout is captured, not printed."""
        argv = [str(a) for a in argv]
        span = (self.tracer.span("cli.main", command=argv[0])
                if self.tracer is not None else contextlib.nullcontext())
        detail = ""
        with span, contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = cli.main(argv)
            except Exception:  # a crash is one failed operation, not the run's end
                rc, detail = -1, "\n" + traceback.format_exc()
        self.check(rc == 0, f"`qoe-forge {' '.join(argv)}` exited {rc}{detail}")
        return rc

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)
        return ok

    def reset_outputs(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def _metrics_doc(self, path: Path, what: str):
        """The metrics block of an evaluate output, or None (a failed check)."""
        try:
            block = json.loads(path.read_text())["metrics"]
            ok = all(math.isfinite(block[m]) for m in ("rmse", "mae", "r2"))
        except (OSError, ValueError, KeyError, TypeError):
            block, ok = None, False
        return block if self.check(ok, f"{what}: no finite metrics block") else None

    # -- to override ----------------------------------------------------------

    def sizes(self) -> dict:
        raise NotImplementedError

    def prepare(self) -> None:
        """Build the inputs every pass reads."""

    def timed_pass(self) -> None:
        raise NotImplementedError

    def check_outputs(self) -> tuple[list[float], bytes | None]:
        """Check the pass's outputs; return every R^2 score it produced and
        the bytes its digest is taken over (None when they are unreadable)."""
        raise NotImplementedError

    def check_pass(self) -> list[float]:
        """Check the pass's outputs and their digest; return its R^2 scores."""
        scores, outputs = self.check_outputs()
        if outputs is None:
            return scores
        digest = hashlib.sha256(outputs).hexdigest()
        if self.digests:
            self.check(digest == self.digests[0],
                       "outputs differ between passes of one seed")
        if self.expected_digest is not None:
            self.check(digest == self.expected_digest,
                       f"outputs digest {digest} != {self.expected_digest}, "
                       f"recorded for seed {self.seed} in baseline.json")
        self.digests.append(digest)
        return scores


class PaperCompare(Workload):
    name = "paper_compare"

    def __init__(self, seed, work, **kwargs):
        super().__init__(seed, work, **kwargs)
        self.n = 30 if self.tiny else 450
        self.config = self.inputs / "compare.cfg"
        self.expected_hashes = None

    def sizes(self):
        return {"base_sessions": self.n, "augmented_rows": 6 * self.n,
                "models": len(KINDS), "sides": len(SIDES),
                "model_params": _model_params(self.tiny)}

    def prepare(self):
        keys = {"dataset.n": self.n} if self.tiny else {}
        keys.update({f"models.{k}": v for k, v in _model_params(self.tiny).items()})
        _write_config(self.config, keys)

    def timed_pass(self):
        self.cli("compare", "--seed", self.seed, "--config", self.config,
                 "--out", self.out)

    def check_outputs(self):
        try:
            text = (self.out / "report.json").read_bytes()
            report = json.loads(text)
        except (OSError, ValueError):
            self.check(False, "compare wrote no readable report.json")
            return [], None
        scores = []
        for side in SIDES:
            models = report.get(side, {}).get("models", {})
            for kind in KINDS:
                block = models.get(kind, {}).get("metrics")
                if self.check(block is not None, f"{side}/{kind}: no metrics "
                              f"({models.get(kind, {}).get('error', 'missing')})"):
                    scores.append(block["r2"])
        if self.expected_hashes is None:
            base = generate_base_dataset(self.n, PAPER_DATASET_SEED)
            aug = augment_dataset(base, AugmentationConfig(seed=PAPER_AUGMENT_SEED))
            self.expected_hashes = {"base": dataset_hash(base),
                                    "augmented": dataset_hash(aug)}
        got = {side: report.get(side, {}).get("dataset_hash") for side in SIDES}
        self.check(got == self.expected_hashes,
                   f"report dataset hashes {got} != inputs {self.expected_hashes}")
        return scores, text


class DataPath(Workload):
    name = "data_path_4k"

    def __init__(self, seed, work, **kwargs):
        super().__init__(seed, work, **kwargs)
        self.n = 40 if self.tiny else 4_000
        self.expected_hash = None

    def sizes(self):
        return {"base_sessions": self.n, "augmented_rows": 6 * self.n,
                "models": 1}

    def timed_pass(self):
        o, s = self.out, self.seed
        self.cli("generate", "--n", self.n, "--seed", s, "--out", o / "base.csv")
        self.cli("augment", "--in", o / "base.csv", "--out", o / "aug.csv",
                 "--seed", s + 1)
        self.cli("split", "--in", o / "aug.csv", "--out-train", o / "train.csv",
                 "--out-test", o / "test.csv", "--seed", s + 2)
        self.cli("train", "--in", o / "train.csv", "--model", "linear_regression",
                 "--out", o / "model.json", "--seed", s)
        self.cli("evaluate", "--model", o / "model.json", "--in", o / "test.csv",
                 "--out", o / "eval.json")

    def check_outputs(self):
        o = self.out
        try:
            rows = _data_rows(o / "aug.csv")
            train = set(_column(o / "train.csv", "base_session_id"))
            test = set(_column(o / "test.csv", "base_session_id"))
            split_rows = _data_rows(o / "train.csv") + _data_rows(o / "test.csv")
            round_trip = dataset_hash(read_csv(o / "base.csv"))
        except (OSError, ValueError, StopIteration) as exc:
            self.check(False, f"data path outputs unreadable: {exc}")
            return [], None
        self.check(rows == 6 * self.n, f"augmented rows {rows} != 6 x {self.n}")
        self.check(split_rows == rows, f"split kept {split_rows} of {rows} rows")
        self.check(bool(train) and bool(test) and not (train & test),
                   f"{len(train & test)} base sessions on both sides of the split")
        if self.expected_hash is None:
            self.expected_hash = dataset_hash(generate_base_dataset(self.n, self.seed))
        self.check(round_trip == self.expected_hash,
                   "dataset_hash changed across a write_csv/read_csv round trip")
        block = self._metrics_doc(o / "eval.json", "evaluate")
        if block is None:
            return [], None
        return [block["r2"]], _canonical({"hash": round_trip, "metrics": block})


class BatchScoring(Workload):
    name = "batch_scoring"

    def __init__(self, seed, work, **kwargs):
        super().__init__(seed, work, **kwargs)
        self.train_n = 30 if self.tiny else 450
        self.score_n = 60 if self.tiny else 6_000

    def sizes(self):
        return {"train_sessions": self.train_n,
                "train_rows": round(0.8 * self.train_n),
                "score_rows": self.score_n, "models": len(KINDS),
                "model_params": _model_params(self.tiny)}

    def prepare(self):
        i = self.inputs
        # The paper protocol's base-side train split (450 sessions, grouped 80/20).
        self.cli("generate", "--n", self.train_n, "--seed", PAPER_DATASET_SEED,
                 "--out", i / "base.csv")
        self.cli("split", "--in", i / "base.csv", "--out-train", i / "train.csv",
                 "--out-test", i / "test.csv", "--seed", PAPER_SPLIT_SEED)
        # An odd dataset seed never equals the (even) paper one: disjoint corpus.
        self.cli("generate", "--n", self.score_n, "--seed", 2 * self.seed + 1,
                 "--out", i / "score.csv")
        _write_config(i / "models.cfg", {f"models.{k}": v
                                         for k, v in _model_params(self.tiny).items()})
        for kind in KINDS:
            self.cli("train", "--in", i / "train.csv", "--model", kind,
                     "--out", i / f"{kind}.json", "--seed", self.seed,
                     "--config", i / "models.cfg")

    def timed_pass(self):
        for kind in KINDS:
            self.cli("evaluate", "--model", self.inputs / f"{kind}.json",
                     "--in", self.inputs / "score.csv",
                     "--out", self.out / f"{kind}.eval.json")

    def check_outputs(self):
        scores, docs = [], {}
        for kind in KINDS:
            path = self.out / f"{kind}.eval.json"
            block = self._metrics_doc(path, f"evaluate {kind}")
            if block is not None:
                scores.append(block["r2"])
                docs[kind] = block
        return scores, _canonical(docs)


WORKLOADS = {w.name: w for w in (PaperCompare, DataPath, BatchScoring)}
