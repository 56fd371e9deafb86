"""Batch command-line front end.

Every command reads a problem file, runs one computation, and prints a
report: human-readable lines, then a single canonical ``json:`` line
(the machine-readable section, byte-stable across runs), then a
``time:`` line that is excluded from the stable section.  Exit codes:
0 = ok, 1 = mathematical failure (invalid object or nonzero obstruction
class), 2 = usage or parse error.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field as dataclass_field

import click

from . import problemfile as pfmod
from .cohomology import HochschildComplex, d_c, morphism_complex
from .coalgebra import InvalidStructureError, check_coassociative, \
    check_morphism, regular_bicomodule
from .deformation import integrate, obstruction, trivialize, \
    verify_deformation
from .problemfile import ProblemFile, ProblemFileError

# What a command may ask of the sparse path, checked before assembly.
# D_n is scattered from the structure constants one term at a time, so
# its term count (``scatter_terms``) bounds assembly and the operator,
# and keeps elimination to about a second even when a basis change
# makes every structure constant nonzero.  Queries of degree n also
# hold dense n-cochains: up to dim C^n representatives of H^n, and an
# echelon of at most dim C^n rows of that length, hence the bound on
# dim C^n.  Both admit D_3 of id(dp5) (21,500 terms, dim C^3 = 1375)
# and D_8 of id(dp2) (19,840 terms, dim C^8 = 1280).  Over QQ the cost
# of elimination also grows with the height of the entries, so there
# the terms times the bit length of the largest int of the assembled
# operator (structure constants over their common denominator) is
# bounded too.  D_2 of the identity of a random basis change of
# grouplike(5) has 27,125 terms; it ran for 0.7 s with 10-bit ints,
# 1.3 s with 17, 2.9 s with 48 and 51 s with 318, and the bound admits
# it up to 19 bits.  id(dp5) D_3 has 2-bit ints.  ``check`` eliminates
# nothing, so it is bounded by terms and dimension only.
MAX_DIFFERENTIAL_TERMS = 1 << 15
MAX_COCHAIN_DIM = 1 << 11
MAX_DIFFERENTIAL_BITS = 1 << 19
# cohomology degrees are bounded too: over dimension 0 or 1 the
# cochains stay small, but assembly still loops over the degree
MAX_DEGREE = 64


@dataclass
class Report:
    """What a command produced; rendered to stdout by :func:`emit`."""

    command: str
    status: str  # ok | fail | obstructed
    payload: dict
    human: list = dataclass_field(default_factory=list)

    @property
    def exit_code(self):
        return 0 if self.status == "ok" else 1


def emit(report: Report, started: float) -> int:
    click.echo(f"command: {report.command}")
    click.echo(f"status: {report.status}")
    for line in report.human:
        click.echo(f"  {line}")
    machine = {"command": report.command, "status": report.status,
               "payload": report.payload}
    click.echo("json: " + json.dumps(machine, sort_keys=True))
    click.echo(f"time: {time.perf_counter() - started:.4f}s")
    return report.exit_code


def _load(path, ctx) -> ProblemFile:
    return pfmod.load_problem(path, ctx.obj.get("field"))


def _matrix_rows(m):
    return pfmod._matrix_to_rows(m)


def _cochain_payload(w):
    return {
        "A": _matrix_rows(w.a_part.matrix),
        "B": _matrix_rows(w.b_part.matrix),
        "F": _matrix_rows(w.ab_part.matrix) if w.ab_part is not None else [],
    }


def _scalar_list(xs):
    return [str(x) for x in xs]


def _write_fixture_corpus(ctx, param, value):
    if not value or ctx.resilient_parsing:
        return
    os.makedirs(value, exist_ok=True)
    corpus = pfmod.builtin_corpus()
    for name, pf in corpus.items():
        path = os.path.join(value, f"{name}.json")
        pfmod.write_problem(pf, path)
        click.echo(f"wrote {path}")
    ctx.exit(0)


@click.group()
@click.option("--field", "field_spec", default=None,
              metavar="rational|prime:<p>",
              help="Field override applied when parsing problem files.")
@click.option("--fixtures", callback=_write_fixture_corpus, expose_value=False,
              is_eager=True, metavar="DIR",
              help="Write the built-in fixture corpus into DIR and exit.")
@click.pass_context
def main(ctx, field_spec):
    """Exact cohomology and deformation computations for coalgebra morphisms."""
    ctx.ensure_object(dict)
    if field_spec is not None:
        try:
            ctx.obj["field"] = pfmod.parse_field_spec(field_spec)
        except ProblemFileError as exc:
            raise click.UsageError(str(exc))
    else:
        ctx.obj["field"] = None


def _command(fn):
    """Shared error envelope: parse errors and bad names exit 2."""

    def wrapper(ctx, *args, **kwargs):
        started = time.perf_counter()
        try:
            report = fn(ctx, *args, **kwargs)
        except ProblemFileError as exc:
            raise click.UsageError(str(exc))
        ctx.exit(emit(report, started))

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _require_size(comp, n, name):
    """Usage error (exit 2) if D_n of ``comp`` is over the dimension or
    the term budget; both are counted without assembling anything."""
    dim = comp.cochain_dim(n)
    if dim > MAX_COCHAIN_DIM:
        raise click.UsageError(
            f"{name}: the degree-{n} differential acts on {dim}-dimensional "
            f"cochains, over the limit of {MAX_COCHAIN_DIM}")
    terms = comp.scatter_terms(n)
    if terms > MAX_DIFFERENTIAL_TERMS:
        raise click.UsageError(
            f"{name}: the degree-{n} differential would be scattered from "
            f"{terms} terms, over the limit of {MAX_DIFFERENTIAL_TERMS}")
    return terms


def _require_budget(comp, n, name):
    """Usage error (exit 2) if D_n of ``comp`` is over the budget of a
    command that eliminates it: its size, and over QQ its height."""
    terms = _require_size(comp, n, name)
    if comp.field.kind == "rational":
        bits = comp.operator_bits(n)
        if terms * bits > MAX_DIFFERENTIAL_BITS:
            raise click.UsageError(
                f"{name}: the degree-{n} differential has {terms} terms "
                f"with integers of up to {bits} bits over QQ; terms times "
                f"bits is over the limit of {MAX_DIFFERENTIAL_BITS}")


def _lookup(pf: ProblemFile, name, sections):
    for section in sections:
        table = getattr(pf, section)
        if name in table:
            return section, table[name]
    raise ProblemFileError(f"unknown name {name!r} "
                           f"(searched: {', '.join(sections)})")


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.argument("name")
@click.pass_context
@_command
def check(ctx, file, name):
    """Check all defining identities of the named object."""
    pf = _load(file, ctx)
    kind, obj = _lookup(pf, name, ("coalgebras", "morphisms", "deformations",
                                   "isomorphisms", "cocycles"))
    command = f"check {file} {name}"
    payload = {"name": name, "kind": kind}
    if kind in ("deformations", "cocycles"):
        # verifying a deformation and d_c of a cocycle both work in the
        # degrees up to D_2 of the morphism's complex, and eliminate nothing
        _require_size(morphism_complex(obj.morphism), 2, name)
    if kind == "coalgebras":
        rep = check_coassociative(obj)
        ok, detail = rep.ok, rep.message
        if rep.position is not None:
            payload["position"] = list(rep.position)
    elif kind in ("morphisms", "isomorphisms"):
        # an isomorphism's construction enforces the identity constant
        # term and the shapes; what is left is the morphism it is about
        rep = check_morphism(obj if kind == "morphisms" else obj.morphism)
        ok, detail = rep.ok, rep.message
        if rep.position is not None:
            payload["position"] = list(rep.position)
    elif kind == "deformations":
        rep = verify_deformation(obj)
        ok, detail = rep.ok, rep.message
        if not rep.ok:
            payload["order"] = rep.order
            payload["equation"] = rep.equation
            payload["position"] = list(rep.position)
    else:
        dw = d_c(obj)
        ok = dw.is_zero()
        if ok:
            detail = "ok"
        else:
            payload["coboundary"] = _cochain_payload(dw)
            detail = "coboundary of the named cochain is nonzero"
    payload["detail"] = detail
    return Report(command, "ok" if ok else "fail", payload,
                  [detail] if not ok else [f"{kind[:-1]} {name!r}: all "
                                           f"identities hold"])


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.argument("complex_kind", metavar="COMPLEX",
                type=click.Choice(["source", "target", "morphism"]))
@click.argument("name")
@click.argument("degree", type=click.IntRange(min=1, max=MAX_DEGREE))
@click.pass_context
@_command
def cohomology(ctx, file, complex_kind, name, degree):
    """Cohomology of the chosen complex in one degree.

    COMPLEX selects the deformation complex of a named morphism, or the
    Hochschild complex (regular coefficients) of its source or target;
    with source/target, NAME may also directly name a coalgebra.
    """
    pf = _load(file, ctx)
    command = f"cohomology {file} {complex_kind} {name} {degree}"
    if complex_kind == "morphism":
        _, f = _lookup(pf, name, ("morphisms",))
        failure = _morphism_failure(f, command)
        if failure is not None:
            return failure
        comp = morphism_complex(f)
    else:
        if name in pf.morphisms:
            f = pf.morphisms[name]
            coalg = f.source if complex_kind == "source" else f.target
        elif name in pf.coalgebras:
            coalg = pf.coalgebras[name]
        else:
            raise ProblemFileError(f"unknown name {name!r} "
                                   f"(searched: morphisms, coalgebras)")
        rep = check_coassociative(coalg)
        if not rep.ok:
            return Report(command, "fail",
                          {"name": name, "detail": rep.message}, [rep.message])
        comp = HochschildComplex(regular_bicomodule(coalg))
    _require_budget(comp, degree, name)
    report = comp.cohomology(degree)
    payload = {
        "name": name,
        "complex": complex_kind,
        "degree": degree,
        "cocycle_dim": report.cocycle_dim,
        "coboundary_dim": report.coboundary_dim,
        "h_dim": report.h_dim,
        "representatives": [
            _scalar_list(comp.flatten(r).column_entries(0))
            for r in report.representatives
        ],
    }
    human = [f"degree {degree}: cocycles {report.cocycle_dim}, "
             f"coboundaries {report.coboundary_dim}, "
             f"cohomology dimension {report.h_dim}"]
    return Report(command, "ok", payload, human)


def _morphism_failure(f, command):
    """The failing Report of ``command`` if f or its coalgebras are
    broken, else None.  The checks are those kept in the record of f's
    complex; a coalgebra that fails is checked again for its report,
    which names it."""
    comp = morphism_complex(f)
    if comp.coassociative():
        rep = comp.morphism_report()
    else:
        rep = next(r for r in map(check_coassociative, (f.source, f.target))
                   if not r.ok)
    if rep.ok:
        return None
    return Report(command, "fail", {"detail": rep.message}, [rep.message])


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.argument("name")
@click.pass_context
@_command
def obstruct(ctx, file, name):
    """Obstruction cochain and class of a named deformation."""
    pf = _load(file, ctx)
    _, d = _lookup(pf, name, ("deformations",))
    _require_budget(morphism_complex(d.morphism), 3, name)
    command = f"obstruct {file} {name}"
    rep = verify_deformation(d)
    if not rep.ok:
        return Report(command, "fail",
                      {"name": name, "detail": rep.message}, [rep.message])
    ob = obstruction(d)
    payload = {
        "name": name,
        "order": d.order,
        "cochain": _cochain_payload(ob.cochain),
        "three_cocycle": "confirmed",
        "h3_class": _scalar_list(ob.h3_class),
    }
    human = ["3-cocycle: confirmed"]
    if ob.is_trivial:
        human.append("obstruction class is zero: the deformation extends to "
                     f"order {ob.next_order}")
        status = "ok"
    else:
        human.append(f"obstruction class is nonzero in degree-3 cohomology: "
                     f"{_scalar_list(ob.h3_class)}")
        status = "obstructed"
    return Report(command, status, payload, human)


@main.command("integrate")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.argument("name")
@click.argument("order", type=click.IntRange(min=1, max=pfmod.MAX_ORDER))
@click.option("-o", "--output", required=True,
              type=click.Path(dir_okay=False, writable=True),
              help="Problem file to write the resulting deformation to.")
@click.pass_context
@_command
def integrate_cmd(ctx, file, name, order, output):
    """Integrate a named 2-cocycle into a deformation of the given order."""
    pf = _load(file, ctx)
    _, w = _lookup(pf, name, ("cocycles",))
    command = f"integrate {file} {name} {order}"
    failure = _morphism_failure(w.morphism, command)
    if failure is not None:
        return failure
    comp = morphism_complex(w.morphism)
    _require_budget(comp, 3, name)
    try:
        # integrate tests the cocycle itself; only a failure is read again
        result = integrate(w, order)
    except InvalidStructureError:
        dw = comp.differential(w)
        if dw.is_zero():
            raise
        raise ProblemFileError(
            f"{name!r} is not a 2-cocycle; its coboundary has entries "
            f"{_cochain_payload(dw)}") from None
    d = result.deformation
    out_pf = _output_problem(pf, d.morphism)
    out_pf.deformations[name] = d
    pfmod.write_problem(out_pf, output)
    payload = {
        "name": name,
        "target_order": order,
        "order_reached": d.order,
        "output": output,
    }
    human = [f"reached order {d.order} of {order}", f"wrote {output}"]
    if result.ok:
        return Report(command, "ok", payload, human)
    payload["failing_order"] = result.obstruction.next_order
    payload["h3_class"] = _scalar_list(result.obstruction.h3_class)
    human.append(
        f"obstructed at order {result.obstruction.next_order}; class "
        f"{_scalar_list(result.obstruction.h3_class)}")
    return Report(command, "obstructed", payload, human)


@main.command("trivialize")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.argument("name")
@click.option("-o", "--output", required=True,
              type=click.Path(dir_okay=False, writable=True),
              help="Problem file to write the trivializing isomorphism to.")
@click.pass_context
@_command
def trivialize_cmd(ctx, file, name, output):
    """Find a formal isomorphism carrying a deformation to the trivial one."""
    pf = _load(file, ctx)
    _, d = _lookup(pf, name, ("deformations",))
    _require_budget(morphism_complex(d.morphism), 2, name)
    command = f"trivialize {file} {name}"
    try:
        # trivialize verifies d only where its staircase cannot certify it
        result = trivialize(d)
    except InvalidStructureError:
        rep = verify_deformation(d)
        if rep.ok:
            raise
        return Report(command, "fail",
                      {"name": name, "detail": rep.message}, [rep.message])
    payload = {"name": name, "order": d.order}
    if result.ok:
        out_pf = _output_problem(pf, d.morphism)
        out_pf.isomorphisms[name] = result.isomorphism
        pfmod.write_problem(out_pf, output)
        payload["output"] = output
        return Report(command, "ok", payload,
                      [f"trivialized through order {d.order}",
                       f"wrote {output}"])
    payload["blocked_order"] = result.blocked_order
    payload["h2_class"] = _scalar_list(result.h2_class)
    payload["blocking_coefficient"] = _cochain_payload(result.blocking_cochain)
    return Report(command, "obstructed", payload,
                  [f"leading coefficient at order {result.blocked_order} "
                   f"represents a nonzero degree-2 class "
                   f"{_scalar_list(result.h2_class)}"])


def _output_problem(pf: ProblemFile, f) -> ProblemFile:
    """A fresh problem file carrying a morphism and its two coalgebras."""
    out = ProblemFile(field=pf.field)
    fname = pfmod._morphism_name(pf, f, "output")
    src_name = pfmod._name_of(pf, f.source, "output")
    tgt_name = pfmod._name_of(pf, f.target, "output")
    out.coalgebras[src_name] = f.source
    out.coalgebras[tgt_name] = f.target
    out.morphisms[fname] = f
    return out


if __name__ == "__main__":
    main()
