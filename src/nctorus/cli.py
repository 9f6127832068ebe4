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

from .deform import (
    PlanckParam,
    SymplecticStructure,
    deformed_mul,
    poisson_bracket,
)
from .cstar import op_norm_estimate
from .errors import ConfigError, NCTorusError
from .flow import flow_points, hamiltonian_vector_field, pullback, step_count
from .harness import ExperimentConfig, commutator_limit_scan, scan
from .lattice import FourierElement
from .quantum import QuantumHamiltonian, heisenberg_evolve


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


def _finite(text):
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _floats(text):
    return [_finite(x) for x in text.split(",")]


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
    p.add_argument("--step", type=_finite, default=1e-3)
    p.add_argument("--jacobians", action="store_true")

    p = sub.add_parser(
        "evolve-quantum", help="Heisenberg evolution exp(t L_hbar) f of an observable"
    )
    p.add_argument("--f", type=_element, required=True)
    p.add_argument("--hamiltonian", type=_element, required=True)
    p.add_argument("--hbar", type=_finite, required=True)
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--J", type=_matrix, default=SymplecticStructure.standard())
    p.add_argument("--trunc-radius", type=int, default=32)

    p = sub.add_parser("evolve-classical", help="spectral pullback along the flow")
    p.add_argument("--f", type=_element, required=True)
    p.add_argument("--hamiltonian", type=_element, required=True)
    p.add_argument("--t", type=_finite, required=True)
    p.add_argument("--J", type=_matrix, default=SymplecticStructure.standard())
    p.add_argument("--step", type=_finite, default=1e-3)
    p.add_argument("--trunc-radius", type=int, default=32)
    p.add_argument("--grid", type=int, default=None)

    p = sub.add_parser("norm", help="sandwich-certified deformed norm estimate")
    p.add_argument("--f", type=_element, required=True)
    p.add_argument("--hbar", type=_finite, required=True)
    p.add_argument("--J", type=_matrix, default=SymplecticStructure.standard())
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--tol", type=_finite, default=1e-8)

    p = sub.add_parser("scan", help="full (hbar, t) convergence scan from a config file")
    p.add_argument("config", type=str)

    p = sub.add_parser("commutator-scan", help="commutator-vs-bracket residual scan")
    p.add_argument("--hamiltonian", type=_element, required=True)
    p.add_argument("--g", type=_element, required=True)
    p.add_argument("--hbar-grid", type=_floats, default=[0.1, 0.05, 0.025, 0.0125])
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
    if args.command == "product":
        _print_element(deformed_mul(args.f, args.g, args.hbar, args.J))
    elif args.command == "bracket":
        _print_element(poisson_bracket(args.f, args.g, args.J))
    elif args.command == "flow":
        phi = hamiltonian_vector_field(args.hamiltonian, args.J)
        points = json.loads(args.points)
        steps = step_count(args.t, args.step)
        result = flow_points(phi, points, args.t, steps, jacobians=args.jacobians)
        sys.stdout.write(result.to_csv(points))
    elif args.command == "evolve-quantum":
        qh = QuantumHamiltonian(args.hamiltonian, PlanckParam(args.hbar))
        res = heisenberg_evolve(args.f, qh, args.t, args.J, trunc_radius=args.trunc_radius)
        _print_element(res.element)
        print(
            json.dumps({"discarded_mass": res.discarded_mass, "steps": res.steps}),
            file=sys.stderr,
        )
    elif args.command == "evolve-classical":
        phi = hamiltonian_vector_field(args.hamiltonian, args.J)
        grid = args.grid if args.grid else 2 * args.trunc_radius + 4
        res = pullback(
            args.f, phi, args.t, grid, args.trunc_radius, ode_step=args.step
        )
        _print_element(res.element)
        print(
            json.dumps({"discarded_mass": res.discarded_mass, "grid": res.grid}),
            file=sys.stderr,
        )
    elif args.command == "norm":
        est = op_norm_estimate(
            args.f, args.hbar, args.J, window=args.window, tol=args.tol
        )
        print(est.to_json())
    elif args.command == "scan":
        config = ExperimentConfig.from_file(args.config)
        result = scan(config)
        print(json.dumps(result.summary, indent=2))
        return {"clean": 0, "partial": 1}.get(result.status, 1)
    elif args.command == "commutator-scan":
        variant = "one-sided" if args.one_sided else "antisymmetrized"
        res = commutator_limit_scan(
            args.hamiltonian, args.g, args.hbar_grid, args.J, variant=variant
        )
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
