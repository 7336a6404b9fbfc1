"""One-stop conformance check for a structure, character, and group.

run_verification computes the class function once and then checks, in
order: convexity of the character on the instance, agreement of the
composition route with the complex route, embedding certificates on
refinement pairs, the effective-order monotonicity of coefficients
(abelian groups), the f-vector inequalities at class and orbit level,
integrality and bounds of the orbit counts, and agreement with the
brute-force coloring oracle.  The report is a plain dict, ready for
jobio.dump, with an overall "ok" plus one section per check so a failure
names the exact place it happened.
"""

from .chromatic import (ORACLE_GROUND_CAP, coloring_oracle,
                        fixed_coloring_counts, orbit_f_vector, orbital_psi,
                        psi, psi_polynomial, verify_flawless)
from .complexes import (coloring_complex, hilb, psi_hilb_diffs,
                        verify_m_increasing)
from .structures import DIRECT_ONLY_KINDS, check_compatible

VERIFY_GROUND_CAP = 8


def run_verification(h, char, group, k=None, max_ground=VERIFY_GROUND_CAP,
                     certify="comparable", include_oracle=True):
    """Full conformance report; every check that can fail is a section.

    Convexity is walked once, inside coloring_complex, which raises
    VerificationFailure with the witness when the character is not
    balanced convex.  So no report is returned for a non-convex
    character, and the balanced_convex section, set once coloring_complex
    has returned, passes: {"ok": True} for splitting kinds, the skipped
    text for direct-only kinds, which have no convexity conditions.

    The orbit counts, computed once, feed the orbital f-vector and the
    burnside section.  A non-integral or negative one raises
    VerificationFailure from orbital_psi (exit 1 on the command line)
    before the burnside section is built; the section checks the bound
    0 <= count <= identity coefficient."""
    char = check_compatible(h, char)
    n = len(h.ground)
    report = {
        "structure": {"kind": h.kind, "ground": list(h.ground), "size": n},
        "character": str(char),
        "group_order": group.order,
        "checks": {},
    }
    checks = report["checks"]

    X = psi(h, char, group, max_ground=max_ground)
    phi = coloring_complex(h, char, max_ground=max_ground)
    if h.kind in DIRECT_ONLY_KINDS:
        checks["balanced_convex"] = {"ok": True, "skipped": "no splitting calculus for this kind"}
    else:
        checks["balanced_convex"] = {"ok": True}
    diffs = [{"alpha": str(alpha), "composition_route": list(map(str, a)),
              "complex_route": list(map(str, b))}
             for alpha, a, b in psi_hilb_diffs(X, hilb(phi, group))]
    checks["psi_equals_hilb"] = {"ok": not diffs, "diffs": diffs}

    inc = verify_m_increasing(X, phi, group, certify=certify)
    checks["theta_certificates"] = {
        "ok": not inc["invalid_certificates"],
        "pairs_checked": len(inc["certificates"]),
        "invalid": inc["invalid_certificates"],
    }
    checks["coefficient_order"] = {
        "ok": not inc["leq_failures"],
        "abelian": inc["abelian"],
        "failures": inc["leq_failures"],
    }
    if not inc["abelian"]:
        checks["coefficient_order"]["skipped"] = "effective order needs an abelian group"

    poly = psi_polynomial(X)
    if inc["abelian"]:
        checks["flawless_class"] = verify_flawless(poly)
    else:
        checks["flawless_class"] = {"ok": True, "skipped": "class-level order needs an abelian group"}
    orb = orbital_psi(X)
    ofvec = orbit_f_vector(n, orb)
    checks["flawless_orbital"] = verify_flawless(ofvec)
    checks["flawless_orbital"]["f_vector"] = ofvec

    burnside = {"ok": True, "orbit_counts": {}}
    for alpha in sorted(orb, key=lambda a: (a.length, a.parts)):
        v = orb[alpha]
        ident = X.coefficient(alpha).at_identity()
        entry = {"count": v, "identity": ident}
        if not (0 <= v <= ident):
            entry["violation"] = "orbit count outside [0, identity coefficient]"
            burnside["ok"] = False
        burnside["orbit_counts"][str(alpha)] = entry
    checks["burnside_integrality"] = burnside

    if include_oracle and n <= ORACLE_GROUND_CAP:
        kk = k if k is not None else n
        colorings = coloring_oracle(h, char, kk, max_ground=max_ground)
        fixed = fixed_coloring_counts(colorings, group)
        mism = []
        for idx, rep in enumerate(group.class_reps):
            want = poly.value_at(rep, kk)
            got = fixed.values[idx]
            if want != got:
                mism.append({"class": rep.cycle_string(), "polynomial": str(want),
                             "oracle": str(got)})
        checks["oracle"] = {"ok": not mism, "colors": kk,
                            "total_colorings": len(colorings), "mismatches": mism}
    else:
        checks["oracle"] = {"ok": True, "skipped": "oracle not run"}

    report["ok"] = all(c["ok"] for c in checks.values())
    return report
