"""Output hashes: one sha256 per output file and per command stdout.

Runs a fixed set of edgenet commands against the source tree given by
``--src``, in a temporary directory, and prints ``sha256 name`` lines,
sorted by name, with the temporary path replaced by ``$WORK`` in every
stdout. The commands:

- the demo: ``edgenet.synthetic`` and ``preprocess``;
- ``train`` at ``--seed`` 1 and 42 with the demo config;
- ``train`` at ``seq_len`` 2, and at ``seq_len`` 5 with dropout 0.3 and
  ``grad_clip_norm`` 0.05, both with 4/4/3 epochs (the only end-to-end
  run of BPTT at t >= 1);
- ``quantize`` of every ``baseline.eidm`` and ``pruned.eidm``, and
  ``quantize`` once more of each int8 model written (``X_quantized.eidm`` to
  ``X_requantized.eidm``, ``float_q.eidm`` to ``float_qq.eidm``), which
  must reproduce its input's bytes;
- ``evaluate --out`` on the test split and ``dump`` of every model;
- ``evaluate --out`` of the seed-1 ``baseline.eidm`` and the seed-42 int8
  pruned model on the 4000-row train split, the only T = 1 batch larger than
  one eval block (``lstm_net.EVAL_BLOCK_ROWS``), so it runs several blocks
  and a longer last one;
- ``predict`` on the int8 pruned model of the seed-42 run;
- a 3000-row ``bench/unswgen`` CSV through ``preprocess``, and a T = 6
  ``evaluate`` of a seeded 3x32 float model and its int8 copy;
- the same flows through ``preprocess`` once more, written with a byte-order
  mark, CRLF line endings and quoted ``proto`` and ``service`` cells (service
  ``-`` becomes ``"-,none"``, a cell that holds a comma). At 3000 records the
  CSV is longer than two ``data_pipeline.CSV_BLOCK_ROWS`` blocks, so the
  comparison crosses block boundaries.

Each model container written is also hashed as ``load_model`` decodes it:
the float64 network it returns (dequantized for int8), masks, and int8
scales and zero points. So a change to the reader is checked value by value,
not only through what the commands print.

Two source trees produce the same outputs when their printouts match:

    python tools/output_hashes.py --src ../parent/src > before.txt
    python tools/output_hashes.py --src src > after.txt
    diff before.txt after.txt

BLAS runs single-threaded, as in the benchmark, so runs are reproducible.
It prints 268 lines and takes about 15 seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")
FEATURES = "0.9,0.9,0.05,0.1,0.8,0.9,0.1,0.1,0.9,0.1"  # the README's predict example
UNSW_ROWS = 3000
UNSW_WIDTH = 7  # 42 features -> 6-step sequences


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Run:
    """Runs commands in-process under ``work`` and collects their hashes."""

    def __init__(self, work: str):
        self.work = work
        self.hashes: dict[str, str] = {}

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def call(self, name: str, fn, argv: list[str]) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = fn(argv)
        if rc != 0:
            raise SystemExit(f"{name}: exit {rc}: {err.getvalue().strip()}")
        text = out.getvalue().replace(self.work, "$WORK")
        self.hashes[f"stdout:{name}"] = sha256(text.encode("utf-8"))

    def write_config(self, name: str, doc: dict) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def file_hashes(self) -> None:
        for base, _, files in os.walk(self.work):
            for name in files:
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    self.hashes[os.path.relpath(path, self.work)] = sha256(fh.read())
                if name.endswith(".eidm"):
                    self.decoded_hashes(path)

    def decoded_hashes(self, path: str) -> None:
        """Three hashes of a container as ``load_model`` decodes it: every
        float64 tensor of the network it returns, every mask, and each int8
        tensor's scale and zero point."""
        from edgenet import model_store

        loaded = model_store.load_model(path)
        quant = b""
        if loaded.qmodel is not None:
            quant = "".join(f"{name} {qt.params.scale!r} {qt.params.zero_point}\n"
                            for name, qt in loaded.qmodel.weights.items()).encode("utf-8")
        masks = loaded.mask.masks if loaded.mask is not None else {}
        rel = os.path.relpath(path, self.work)
        for part, blob in (("tensors", _named_bytes(loaded.params.tensors())),
                           ("masks", _named_bytes(masks)), ("quant", quant)):
            self.hashes[f"decoded-{part}:{rel}"] = sha256(blob)


def _named_bytes(tree: dict) -> bytes:
    """Each array's name, dtype, shape and bytes, in the tree's order."""
    return b"".join(f"{name} {arr.dtype} {arr.shape}\n".encode("utf-8") + arr.tobytes()
                    for name, arr in tree.items())


def _quoted_crlf(text: str) -> str:
    """``text`` with a byte-order mark, CRLF line endings, every proto and
    service cell quoted and service ``-`` spelled ``-,none``."""
    lines = text.splitlines()
    header = lines[0].split(",")
    quote = [header.index("proto"), header.index("service")]
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        for i in quote:
            cells[i] = '"-,none"' if cells[i] == "-" else f'"{cells[i]}"'
        out.append(",".join(cells))
    return "\ufeff" + "\r\n".join(out) + "\r\n"


def run_all(run: Run) -> None:
    from edgenet import cli, lstm_net, model_store, synthetic  # from --src, see main()
    import unswgen

    run.call("synthetic", synthetic.main, ["--out", run.path("demo")])
    cfg = run.path("demo", "config.json")
    data = run.path("data")
    run.call("preprocess", cli.main,
             ["preprocess", "--config", cfg, "--csv", run.path("demo", "data.csv"),
              "--out", data])

    with open(cfg, encoding="utf-8") as fh:
        demo = json.load(fh)
    trains = {"seed1": (cfg, ["--seed", "1"]), "seed42": (cfg, ["--seed", "42"])}
    for seq_len, dropout, clip in ((2, None, None), (5, 0.3, 0.05)):
        doc = json.loads(json.dumps(demo))
        doc["architecture"]["seq_len"] = seq_len
        if dropout is not None:
            doc["architecture"]["dropout"] = dropout
            doc["grad_clip_norm"] = clip
        for phase, epochs in (("dense", 4), ("sparse", 4), ("redense", 3)):
            doc["phases"][phase]["epochs"] = epochs
        trains[f"seq{seq_len}"] = (run.write_config(f"seq{seq_len}.json", doc), [])
    models = []
    for name, (config, extra) in trains.items():
        out = run.path("models", name)
        run.call(f"train-{name}", cli.main,
                 ["train", "--config", config, "--data", data, "--out", out] + extra)
        for kind in ("baseline", "pruned"):
            q = os.path.join(out, f"{kind}_quantized.eidm")
            run.call(f"quantize-{name}-{kind}", cli.main,
                     ["quantize", os.path.join(out, f"{kind}.eidm"), q])
        models += [(f"{name}-{m[:-5]}", os.path.join(out, m))
                   for m in sorted(os.listdir(out)) if m.endswith(".eidm")]
        for kind in ("baseline", "pruned"):
            run.call(f"requantize-{name}-{kind}", cli.main,
                     ["quantize", os.path.join(out, f"{kind}_quantized.eidm"),
                      os.path.join(out, f"{kind}_requantized.eidm")])
    run.call("predict", cli.main,
             ["predict", run.path("models", "seed42", "pruned_quantized.eidm"),
              "--features", FEATURES])

    unsw = run.path("unsw")
    os.makedirs(unsw)
    flows = unswgen.generate(UNSW_ROWS, 1)
    with open(os.path.join(unsw, "flows.csv"), "w", encoding="utf-8") as fh:
        fh.write(flows)
    with open(os.path.join(unsw, "flows_crlf.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(_quoted_crlf(flows))
    unsw_cfg = run.write_config(os.path.join("unsw", "config.json"),
                                {"seed": 1, "schema": unswgen.schema()})
    for name, csv, out in (("unsw", "flows.csv", "data"),
                           ("unsw-crlf", "flows_crlf.csv", "data_crlf")):
        run.call(f"preprocess-{name}", cli.main,
                 ["preprocess", "--config", unsw_cfg, "--csv", os.path.join(unsw, csv),
                  "--out", os.path.join(unsw, out)])
    net = lstm_net.init_params((UNSW_WIDTH, 32, 32, 32), seed=1)
    model_store.save_dense(net, os.path.join(unsw, "float.eidm"))
    run.call("quantize-unsw", cli.main,
             ["quantize", os.path.join(unsw, "float.eidm"), os.path.join(unsw, "float_q.eidm")])
    run.call("requantize-unsw", cli.main,
             ["quantize", os.path.join(unsw, "float_q.eidm"), os.path.join(unsw, "float_qq.eidm")])

    for name, model in models:
        run.call(f"evaluate-{name}", cli.main,
                 ["evaluate", model, os.path.join(data, "test.eidd"),
                  "--out", run.path("eval", name)])
    for name in ("seed1-baseline", "seed42-pruned_quantized"):
        run.call(f"evaluate-train-{name}", cli.main,
                 ["evaluate", dict(models)[name], os.path.join(data, "train.eidd"),
                  "--out", run.path("eval-train", name)])
    for kind in ("float", "float_q"):
        run.call(f"evaluate-unsw-{kind}", cli.main,
                 ["evaluate", os.path.join(unsw, f"{kind}.eidm"),
                  os.path.join(unsw, "data", "train.eidd"),
                  "--out", os.path.join(unsw, f"eval_{kind}")])
    for name, model in models + [("unsw-float", os.path.join(unsw, "float.eidm")),
                                 ("unsw-float_q", os.path.join(unsw, "float_q.eidm"))]:
        run.call(f"dump-{name}", cli.main, ["dump", model])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="source tree that holds the edgenet package")
    args = ap.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src)]
    sys.path.append(BENCH)  # unswgen, read-only
    with tempfile.TemporaryDirectory() as work:
        run = Run(work)
        run_all(run)
        run.file_hashes()
    for name in sorted(run.hashes):
        print(run.hashes[name], name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
