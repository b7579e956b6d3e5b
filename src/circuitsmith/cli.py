"""Command-line interface.

Subcommands consume the JSON formats documented in the README and print a
JSON report.  Exit codes: 0 for a valid result, 1 for an invalid one (the
report carries witnesses) or for a command line or input that cannot be
read, parsed or accepted (the report carries the error), 2 when recognition
returned Unknown.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import serialize
from .circuits import glue, singular_set, verify_circuit
from .errors import CircuitsmithError, MalformedInputError, PipelineError
from .homology import homology
from .limits import compose as compose_maps
from .limits import is_proper, limit_set
from .limits import product as product_maps
from .obstructions import dual_complex
from .pipeline import circuit_stage, evaluate_stages, fundamental_class_stages, nullbordism_stage
from .pipeline import psi, verify_bordism_certificate
from .serialize import dumps

EXIT_VALID = 0
EXIT_INVALID = 1
EXIT_UNKNOWN = 2


def _load(path: str) -> dict:
    """The JSON document in the file at ``path``."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError also covers over-long integers
        raise MalformedInputError(f"{path} does not decode as JSON: {exc}")


def _emit(payload: dict, out: str | None = None) -> None:
    """Print the report, after writing it to the file at ``out`` if given."""
    text = dumps(payload)
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise MalformedInputError(f"cannot write {out}: {exc}")
    sys.stdout.write(text)


def _verdict_exit(payload: dict) -> int:
    if payload.get("unknown"):
        return EXIT_UNKNOWN
    return EXIT_VALID if payload.get("valid") else EXIT_INVALID


def cmd_check_circuit(args) -> int:
    payload = _load(args.file)
    data = serialize.circuit_from_json(payload, k=args.k)
    if args.s:
        S = serialize.subcomplex_from_json(_load(args.s), data.L)
        data = type(data)(data.L, data.K, data.k, S)
    payload = serialize.verdict_to_json(verify_circuit(data))
    _emit(payload)
    return _verdict_exit(payload)


def cmd_sigma(args) -> int:
    # As in the pipelines, the axioms come first: a singular set built on
    # data that fails them describes nothing.
    payload = _load(args.file)
    if args.case == "c":
        data = serialize.bordism_from_json(payload)
        nullbordism_stage(data)
    else:
        data = serialize.circuit_from_json(payload)
        circuit_stage(data)
    _emit(serialize.singular_set_to_json(singular_set(args.case, data)))
    return EXIT_VALID


def cmd_glue(args) -> int:
    A = serialize.circuit_from_json(_load(args.left))
    B = serialize.circuit_from_json(_load(args.right))
    iso_payload = serialize._object(_load(args.iso), "iso")
    interface_a = serialize.subcomplex_from_json(iso_payload.get("interface_a", []), A.K)
    interface_b = serialize.subcomplex_from_json(iso_payload.get("interface_b", []), B.K)
    iso = serialize._int_map(iso_payload.get("vertex_map", {}), "iso JSON 'vertex_map'")
    result = glue(A, B, interface_a, interface_b, iso, reverse_orientation=args.reverse)
    payload = {
        "circuit": serialize.circuit_to_json(result.data),
        "verdict": serialize.verdict_to_json(result.verdict),
        "reversed_right": result.reversed_right,
    }
    _emit(payload, args.out)
    return _verdict_exit(payload["verdict"])


def cmd_homology(args) -> int:
    K = serialize.complex_from_json(_load(args.complex))
    A = None
    if args.rel:
        A = serialize.subcomplex_from_json(_load(args.rel), K)
    H = homology(K, A)
    payload = {
        "betti": list(H.betti_numbers()),
        "torsion": {str(k): list(H.torsion(k)) for k in range(0, max(K.dim, 0) + 1) if H.torsion(k)},
    }
    _emit(payload)
    return EXIT_VALID


def cmd_fundamental_class(args) -> int:
    data = serialize.circuit_from_json(_load(args.circuit))
    _, o, z = fundamental_class_stages(data)
    _emit({"valid": True, "orientation": serialize.orientation_to_json(o),
           "fundamental_class": serialize.chain_to_json(z)})
    return EXIT_VALID


def cmd_evaluate(args) -> int:
    data = serialize.circuit_from_json(_load(args.circuit))
    target = serialize.target_from_json(_load(args.target))
    a = serialize.vertex_map_from_json(_load(args.map), data.L, target.X)
    coords = evaluate_stages(data, a, target)[-1]
    _emit({"coordinates": serialize.coordinates_to_json(coords)})
    return EXIT_VALID


def cmd_limit_set(args) -> int:
    f = serialize.compactified_map_from_json(_load(args.map))
    result = limit_set(f)
    _emit({
        "carrier": serialize.open_set_to_json(result.carrier),
        "limit_dimension": result.limit_dimension,
        "proper": is_proper(f),
    })
    return EXIT_VALID


def cmd_compose(args) -> int:
    f = serialize.compactified_map_from_json(_load(args.inner))
    h = serialize.compactified_map_from_json(_load(args.outer))
    _emit({"map": serialize.compactified_map_to_json(compose_maps(f, h))})
    return EXIT_VALID


def cmd_product(args) -> int:
    f = serialize.compactified_map_from_json(_load(args.left))
    g = serialize.compactified_map_from_json(_load(args.right))
    _emit({"map": serialize.compactified_map_to_json(product_maps(f, g).map)})
    return EXIT_VALID


def cmd_psi(args) -> int:
    circuit = serialize.circuit_from_json(_load(args.circuit))
    target = serialize.target_from_json(_load(args.target))
    a = serialize.vertex_map_from_json(_load(args.map), circuit.L, target.X)
    cert = psi(circuit, a, target)
    payload = serialize.pseudocycle_certificate_to_json(cert)
    _emit(payload, args.out)
    return EXIT_VALID if payload["valid"] else EXIT_INVALID


def cmd_check_bordism(args) -> int:
    bordism = serialize.bordism_from_json(_load(args.bordism))
    target = serialize.target_from_json(_load(args.target))
    d = serialize.vertex_map_from_json(_load(args.map), bordism.N, target.X)
    cert = verify_bordism_certificate(bordism, d, target)
    payload = serialize.bordism_certificate_to_json(cert)
    _emit(payload, args.out)
    return EXIT_VALID if payload["valid"] else EXIT_INVALID


def cmd_dual_complex(args) -> int:
    K = serialize.complex_from_json(_load(args.complex))
    result = dual_complex(K, args.r)
    _emit({
        "complex": serialize.complex_to_json(result.complex),
        "dim": result.dim,
        "bound": result.ambient_dim - args.r - 1,
    })
    return EXIT_VALID


def cmd_verify_cert(args) -> int:
    payload = _load(args.cert)
    ok, mismatches = serialize.reverify_certificate(payload)
    _emit({"reproduced": ok, "mismatches": mismatches})
    if not ok:
        return EXIT_INVALID
    return EXIT_VALID if payload.get("valid", True) else EXIT_INVALID


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as malformed input, so it exits 1 with a JSON
    report; argparse itself would exit 2, the code that means Unknown."""

    def error(self, message: str):
        raise MalformedInputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    ``main`` call: it holds no state between parses."""
    parser = _Parser(
        prog="circuitsmith",
        description="verify circuits, compute homology and limit sets, emit pseudocycle certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-circuit", help="verify the circuit axioms")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--s", default=None, help="singular-set candidate JSON (simplex list)")
    p.set_defaults(func=cmd_check_circuit)

    p = sub.add_parser("sigma", help="construct the case singular set")
    p.add_argument("--case", choices=["a", "b", "c"], required=True)
    p.add_argument("file")
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("glue", help="glue two circuits along boundary subcomplexes")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--iso", required=True)
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("homology", help="integer homology with torsion")
    p.add_argument("complex")
    p.add_argument("--rel", default=None)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("fundamental-class", help="orient a circuit and emit its fundamental class")
    p.add_argument("circuit")
    p.set_defaults(func=cmd_fundamental_class)

    p = sub.add_parser("evaluate", help="homology coordinates of a mapped circuit")
    p.add_argument("circuit")
    p.add_argument("map")
    p.add_argument("target")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("limit-set", help="limit set of a compactified map")
    p.add_argument("map")
    p.set_defaults(func=cmd_limit_set)

    p = sub.add_parser("compose", help="compose two compactified maps")
    p.add_argument("inner")
    p.add_argument("outer")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("product", help="product of two compactified maps")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("psi", help="certify a singular circuit as a pseudocycle")
    p.add_argument("circuit")
    p.add_argument("map")
    p.add_argument("target")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("check-bordism", help="certify a nullbordism")
    p.add_argument("bordism")
    p.add_argument("map")
    p.add_argument("target")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check_bordism)

    p = sub.add_parser("dual-complex", help="dual complex above a skeleton dimension")
    p.add_argument("complex")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_dual_complex)

    p = sub.add_parser("verify-cert", help="re-verify an emitted certificate")
    p.add_argument("cert")
    p.set_defaults(func=cmd_verify_cert)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except PipelineError as exc:
        _emit({
            "valid": False,
            "stage": exc.stage,
            "error": str(exc),
            "witnesses": serialize.simplices_to_json(exc.witnesses),
        })
        return EXIT_UNKNOWN if exc.unknown else EXIT_INVALID
    except CircuitsmithError as exc:
        _emit({"valid": False, "error": str(exc)})
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
