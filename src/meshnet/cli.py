"""Command line entry point.

Subcommands: ``gen-mesh``, ``features``, ``eqgap``, ``train`` and ``eval``.
All take ``--config <path>`` (key=value file with [section] headers; omitted
means all defaults) and ``--out <path>``; ``gen-mesh`` writes OFF or OBJ, as
the extension of its ``--out`` says.  On failure -- a library error or
a file that cannot be written -- a machine-readable error JSON is printed to
stdout and the exit code is nonzero.  ``MESHNET_SEED`` overrides the
configured seed.  ``train`` writes ``<out>.ckpt``, one ``.npz`` record of the
named parameters, the format version and the config hash; ``eval`` reads the
record named by ``--checkpoint`` and checks it against its own config.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import config_hash, default_config, load_config
from .errors import MeshNetError
from .harness import (
    build_id,
    equivariance_gap,
    evaluate,
    features_report,
    generate_config_mesh,
    save_checkpoint,
    train,
)
from .mesh import save_mesh


def _write_json(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="meshnet",
        description="gauge-equivariant mesh networks: reports, training, evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in [
        ("gen-mesh", "generate a synthetic mesh and write it as OFF or OBJ, "
                     "as the extension says"),
        ("features", "compute input features for the configured mesh"),
        ("eqgap", "equivariance-gap report for a randomly initialized model"),
        ("train", "train on the configured dataset; writes metrics + checkpoint"),
        ("eval", "accuracy table of a trained checkpoint under transformations"),
    ]:
        p = sub.add_parser(name, help=descr)
        p.add_argument("--config", help="path to the config file")
        p.add_argument("--out", help="output path (JSON; .off or .obj for gen-mesh)")
        if name == "eval":
            p.add_argument("--checkpoint", help="path of the checkpoint that train wrote")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else default_config()
        if args.command == "gen-mesh":
            mesh = generate_config_mesh(cfg)
            if not args.out:
                raise MeshNetError("gen-mesh needs --out <path.off|path.obj>")
            save_mesh(mesh, args.out)
            print(json.dumps({"written": args.out, "n_vertices": mesh.n_vertices,
                              "n_faces": mesh.n_faces, "config_hash": config_hash(cfg),
                              "build_id": build_id()}))
        elif args.command == "features":
            _write_json(features_report(cfg), args.out)
        elif args.command == "eqgap":
            _write_json(equivariance_gap(cfg), args.out)
        elif args.command == "train":
            model, metrics = train(cfg)
            ckpt = (args.out or "train") + ".ckpt"
            save_checkpoint(model, ckpt, config_hash(cfg))
            metrics["checkpoint"] = ckpt
            _write_json(metrics, args.out)
        elif args.command == "eval":
            _write_json(evaluate(cfg, checkpoint=args.checkpoint), args.out)
    except (MeshNetError, OSError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(error))
        if args.out and args.command != "gen-mesh":
            try:
                _write_json(error, args.out)
            except OSError:
                pass
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
