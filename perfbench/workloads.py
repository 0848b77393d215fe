"""The benchmark's three fixed workloads and their known answers.

Each workload is a function ``(api, fx, check)``: ``api`` resolves the
package's public functions by name (plain or traced), ``fx`` holds the
fixtures loaded and promoted during set-up, and ``check`` records one named
operation by comparing an observed verdict with its known answer.  Every
parameter is fixed; the only input that varies between runs is the hash
seed of the process the workload runs in.
"""

from __future__ import annotations

import time

# Fixtures each workload loads through ``gamma2cat.cli.resolve_fixture``
# during set-up, and the subset of them it promotes to Gray monoids.
FIXTURES = {
    "segal-battery": (("F1", "F2", "F3", "F5", "M3"), ("F1", "F2", "F3", "M3")),
    "level-scan": (("F2", "F3", "F5"), ("F2",)),
    "inverse-bounded": (("F1", "F2", "F3"), ("F2", "F3")),
}


class Checks:
    """Named operations with their outcomes; a mismatch is a failed one.

    Each result also carries the clock reading when its verdict was known."""

    def __init__(self):
        self.results: list[tuple[str, bool, str, float]] = []

    def __call__(self, name: str, observed, expected) -> bool:
        ok = observed == expected
        detail = "" if ok else f"observed {observed!r}, expected {expected!r}"
        self.results.append((name, ok, detail, time.perf_counter()))
        return ok


def checked(rep) -> bool:
    """A validator verdict: valid and at least one instance examined."""
    return rep.ok and rep.checked > 0


def segal_battery(api, fx, check: Checks) -> None:
    for name in ("F1", "F2", "F3"):
        X = api.ko_gamma(fx["P" + name], 3)
        sp = api.special_check(X)
        check(f"special-{name}@3", (sp.ok, sorted(sp.per_level)), (True, [2, 3]))
        if name == "F2":
            check("cells-F2-levels-0..3",
                  [X.level(m).counts()[0] for m in range(4)], [1, 2, 4, 8])
        if name == "F3":
            check("cells-F3-level-3", X.level(3).counts(), (1, 16, 2048))
    X5 = api.ko_gamma(fx["F5"], 2)
    sp5 = api.special_check(X5)
    check("special-F5@2-non-isomorphism",
          (sp5.ok, sp5.per_level[2].bijective_on_cells), (True, False))
    check("cells-F5-level-2", X5.level(2).counts(), (2, 32, 256))
    vs2 = api.very_special_check(api.ko_gamma(fx["PF2"], 2))
    check("very-special-F2@2", (vs2.ok, len(vs2.elements)), (True, 2))
    vs3 = api.very_special_check(api.ko_gamma(fx["PM3"], 2))
    check("very-special-M3@2-fails", (vs3.ok, "inverse" in vs3.reason), (False, True))


def level_scan(api, fx, check: Checks) -> None:
    L5 = api.ko_level(fx["F5"], 2)
    check("cells-F5-level-2", L5.counts(), (2, 32, 256))
    check("validate-level-F5@2", checked(api.validate_two_category(L5)), True)
    check("validate-gamma-F5@2", checked(api.validate_gamma(api.ko_gamma(fx["F5"], 2))), True)
    X2 = api.ko_gamma(fx["PF2"], 3)
    check("cells-F2-levels-0..3",
          [X2.level(m).counts()[0] for m in range(4)], [1, 2, 4, 8])
    check("validate-gamma-F2@3", checked(api.validate_gamma(X2)), True)
    L3 = api.kt_level(fx["F3"], 2)
    check("validate-kt-level-F3@2", checked(api.validate_two_category(L3)), True)


def inverse_bounded(api, fx, check: Checks) -> None:
    X2 = api.ko_gamma(fx["PF2"], 2)
    check("cells-F2-levels-0..2",
          [X2.level(m).counts()[0] for m in range(3)], [1, 2, 4])
    check("p-truncation-F2@(2,2)", checked(api.validate_p_truncation(X2, 2, 2)), True)
    check("triangle-P-F2@(2,2)", checked(api.triangle_P(X2, 2, 2)), True)
    X3 = api.ko_gamma(fx["PF3"], 2)
    check("triangle-P-F3@(2,2)", checked(api.triangle_P(X3, 2, 2)), True)
    for name, nmax in (("F1", 2), ("F2", 2), ("F3", 2), ("F2", 3)):
        check(f"triangle-K-{name}@{nmax}", checked(api.triangle_K(fx[name], nmax)), True)
    eta, _ = api.bounded_unit_target(X2, 2, 2)
    span = api.e_construction(eta)
    check("espan-F2", checked(api.validate_espan(span)), True)
    check("espan-adjunction-F2", checked(api.e_adjunction_check(span)), True)
    lam = api.lambda_of(api.unit_map(X2))
    check("lambda-coherence-F2", checked(api.validate_transformation_gamma(lam)), True)


WORKLOADS = {
    "segal-battery": segal_battery,
    "level-scan": level_scan,
    "inverse-bounded": inverse_bounded,
}


def set_up(api, workload: str) -> dict:
    """Load the workload's fixtures as the CLI does, and promote some."""
    names, promoted = FIXTURES[workload]
    fx = {name: api.resolve_fixture(name, None) for name in names}
    fx.update({"P" + name: api.promote(fx[name]) for name in promoted})
    return fx
