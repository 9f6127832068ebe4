"""Command-line front end.

Element arguments use the canonical literal form: a JSON array of
[[p1,p2], re, im] triples, e.g. '[[[1,0],1,0],[[-1,0],1,0]]' for
2 cos(2 pi x).  J is a row-major d x d JSON array.  Exit codes:
0 clean, 1 partial (invalid records), 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .deform import SymplecticStructure, deformed_mul, evolve, poisson_bracket
from .cstar import op_norm_estimate
from .errors import ConfigError, NCTorusError
from .flow import flow_points, hamiltonian_vector_field, step_count
from .harness import ExperimentConfig, commutator_limit_scan, scan
from .lattice import FourierElement


def _element(text):
    try:
        return FourierElement.from_literal(json.loads(text))
    except (json.JSONDecodeError, ValueError, TypeError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"bad element literal: {exc}")


def _matrix(text):
    try:
        return SymplecticStructure(json.loads(text))
    except (json.JSONDecodeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"bad J matrix: {exc}")


def _number(kind, keep, what):
    """The argparse type of a `kind` (int or float) x with keep(x); else "not {what}"."""

    def parse(text):
        try:
            x = kind(text)
            if keep(x):
                return x
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"not {what}: {text!r}")

    return parse


_finite = _number(float, math.isfinite, "a finite number")
_positive = _number(float, lambda x: 0 < x < math.inf, "a finite number > 0")
_nonnegative = _number(float, lambda x: 0 <= x < math.inf, "a finite number >= 0")
_nonzero = _number(float, lambda x: math.isfinite(x) and x != 0, "a finite number != 0")
_positive_int = _number(int, lambda n: n >= 1, "an integer >= 1")


def _points(text, dim):
    """The JSON list of d-vectors `text` as an (n, dim) float array; else `ConfigError`."""
    try:
        points = np.array(json.loads(text), dtype=np.float64)
    except (json.JSONDecodeError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad --points: {exc}") from exc
    if points.ndim != 2 or points.shape[0] == 0 or points.shape[1] != dim:
        raise ConfigError(f"bad --points: not a nonempty list of {dim}-vectors: {text!r}")
    if not np.isfinite(points).all():
        raise ConfigError(f"bad --points: not all finite: {text!r}")
    return points


def _check_dims(args):
    """Raise `ConfigError` unless the elements and J among `args` lie on one torus.

    The empty literal [] is on T^2, as `FourierElement.from_literal` reads it.
    """
    dims = {k: getattr(args, k).dim for k in ("f", "g", "hamiltonian", "J") if hasattr(args, k)}
    if len(set(dims.values())) > 1:
        raise ConfigError(
            "dimension mismatch: " + ", ".join(f"--{k} on T^{d}" for k, d in dims.items())
        )


def _hbar_grid(text):
    return [_nonzero(x) for x in text.split(",")]


def _print_element(f):
    print(json.dumps(f.to_literal()))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nctorus", description="deformation quantization of the torus, desk scale"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="deformed product of two elements")
    p.add_argument("--f", type=_element, required=True)
    p.add_argument("--g", type=_element, required=True)
    p.add_argument("--hbar", type=_finite, required=True)
    p.add_argument("--J", type=_matrix, default=SymplecticStructure.standard())

    p = sub.add_parser("bracket", help="Poisson bracket of two elements")
    p.add_argument("--f", type=_element, required=True)
    p.add_argument("--g", type=_element, required=True)
    p.add_argument("--J", type=_matrix, default=SymplecticStructure.standard())

    p = sub.add_parser("flow", help="integrate the Hamiltonian flow of points")
    p.add_argument("--hamiltonian", type=_element, required=True)
    p.add_argument("--J", type=_matrix, default=SymplecticStructure.standard())
    p.add_argument("--points", type=str, required=True, help="JSON list of d-vectors")
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--step", type=_positive, default=1e-3)
    p.add_argument("--jacobians", action="store_true")

    p = sub.add_parser(
        "evolve-quantum", help="Heisenberg evolution exp(t L_hbar) f of an observable"
    )
    p.add_argument("--f", type=_element, required=True)
    p.add_argument("--hamiltonian", type=_element, required=True)
    p.add_argument("--hbar", type=_nonzero, required=True)
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--J", type=_matrix, default=SymplecticStructure.standard())
    p.add_argument("--trunc-radius", type=_positive_int, default=32)

    p = sub.add_parser(
        "evolve-classical", help="classical transport f o beta_t = exp(t L_0) f"
    )
    p.add_argument("--f", type=_element, required=True)
    p.add_argument("--hamiltonian", type=_element, required=True)
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--J", type=_matrix, default=SymplecticStructure.standard())
    p.add_argument("--trunc-radius", type=_positive_int, default=32)
    p.set_defaults(hbar=0.0)

    p = sub.add_parser("norm", help="sandwich-certified deformed norm estimate")
    p.add_argument("--f", type=_element, required=True)
    p.add_argument("--hbar", type=_finite, required=True)
    p.add_argument("--J", type=_matrix, default=SymplecticStructure.standard())
    p.add_argument("--window", type=_positive_int, default=None)
    p.add_argument("--tol", type=_nonnegative, default=1e-8)

    p = sub.add_parser("scan", help="full (hbar, t) convergence scan from a config file")
    p.add_argument("config", type=str)

    p = sub.add_parser("commutator-scan", help="commutator-vs-bracket residual scan")
    p.add_argument("--hamiltonian", type=_element, required=True)
    p.add_argument("--g", type=_element, required=True)
    p.add_argument("--hbar-grid", type=_hbar_grid, default=[0.1, 0.05, 0.025, 0.0125])
    p.add_argument("--J", type=_matrix, default=SymplecticStructure.standard())
    p.add_argument("--one-sided", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except NCTorusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args):
    _check_dims(args)
    if args.command == "product":
        _print_element(deformed_mul(args.f, args.g, args.hbar, args.J))
    elif args.command == "bracket":
        _print_element(poisson_bracket(args.f, args.g, args.J))
    elif args.command == "flow":
        phi = hamiltonian_vector_field(args.hamiltonian, args.J)
        points = _points(args.points, phi.dim)
        steps = step_count(args.t, args.step)
        result = flow_points(phi, points, args.t, steps, jacobians=args.jacobians)
        sys.stdout.write(result.to_csv(points))
    elif args.command in ("evolve-quantum", "evolve-classical"):
        # evolve-classical is the same engine at hbar = 0
        res = evolve(args.f, args.hamiltonian, args.hbar, args.t, args.J, args.trunc_radius)
        _print_element(res.element)
        print(
            json.dumps({"discarded_mass": res.discarded_mass, "steps": res.steps}),
            file=sys.stderr,
        )
    elif args.command == "norm":
        try:
            est = op_norm_estimate(
                args.f, args.hbar, args.J, window=args.window, tol=args.tol
            )
        except ValueError as exc:  # a window below support radius + 1
            raise ConfigError(str(exc)) from exc
        print(est.to_json())
    elif args.command == "scan":
        config = ExperimentConfig.from_file(args.config)
        result = scan(config)
        print(json.dumps(result.summary, indent=2))
        return {"clean": 0, "partial": 1}.get(result.status, 1)
    elif args.command == "commutator-scan":
        variant = "one-sided" if args.one_sided else "antisymmetrized"
        try:
            res = commutator_limit_scan(
                args.hamiltonian, args.g, args.hbar_grid, args.J, variant=variant
            )
        except ValueError as exc:  # a grid of fewer than 3 points, or one that repeats an |hbar|
            raise ConfigError(str(exc)) from exc
        out = {
            "variant": res.variant,
            "residuals": [[h, est.op_lower] for h, est in res.records],
            "degenerate": res.degenerate,
        }
        if res.fit is not None:
            out["fitted_order"] = res.fit.slope
            out["r_squared"] = res.fit.r_squared
        print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
