"""The library pins CI holds fixed, one named check each.

`PYTHONPATH=src python tests/pins.py [check ...]` runs the named checks, or all of them; an unknown name
runs nothing.  Each check starts from cold caches, puts back every kernel it wraps, prints its result, and
exits 1 with what it got when a value differs from its pin.  pytest does not collect this file.  Times are
for a 2-core host.
"""

import hashlib
import json
import sys
from collections import Counter
from contextlib import contextmanager

from families import faces_and_dots, layered_prop_faces, reference_certificate
from syzstab import constructions, criterion
from syzstab.constructions import (
    Route, RoutingError, admissible_bounds, classify_route, dispatch, gen_n2_search, gen_prop_faces,
)
from syzstab.criterion import brute_force_check, check_family
from syzstab.monomials import MAX_DEGREE_MONOMIALS, binomial, enumerate_monomials


def families(Ns, ds):
    """Yield (N, d, n, route, family) for each admitted cell, column by column in n order."""
    for N in Ns:
        for d in ds:
            lo, hi = admissible_bounds(N, d)
            for n in range(lo, hi + 1):
                try:
                    route, fam = dispatch(N, d, n)
                except RoutingError:
                    continue  # a recursive cell whose inner cell is refused
                yield N, d, n, route, fam


def ceiling_columns(N0):
    """Yield (N, d, top) for each column from N0 up whose top, C(d + N, N), is at most the ceiling."""
    N = N0
    while binomial(1 + N, N) <= MAX_DEGREE_MONOMIALS:
        d = 1
        while (top := binomial(d + N, N)) <= MAX_DEGREE_MONOMIALS:
            yield N, d, top
            d += 1
        N += 1


@contextmanager
def counting(*kernels):
    """Count the calls to the named criterion kernels, and put the originals back afterwards."""
    calls = dict.fromkeys(kernels, 0)
    originals = {name: getattr(criterion, name) for name in kernels}
    for name, real in originals.items():
        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)
        setattr(criterion, name, counted)
    try:
        yield calls
    finally:
        for name, real in originals.items():
            setattr(criterion, name, real)


def require(got, want, what):
    if got != want:
        raise SystemExit(f"{what} changed: got {got!r}, pinned {want!r}")
    print(f"{what}: {got}")


def plane():
    """Every family the search gives an admitted plane cell with d <= 15, through dispatch.

    778 cells, about 4 to 8 s.  Each is built and certified through
    dispatch, so a bucket update that alters a pick shows here, and so does
    a family that fails to certify (the CI plane grid step certifies d <= 12
    only).  (2, 2, 5), the one strictly semistable cell, is left out.
    """
    cells = families((2,), range(2, 16))
    texts = [f"{d} {n}\n{fam.to_text()}" for _, d, n, route, fam in cells if route is not Route.SEARCH_2_2_5]
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    pin = (778, "84d3703e66abb0ac198dae0a531b70a33adbc0399b1573b2e72256c3f55c31ba")
    require((len(texts), digest), pin, "plane families with d <= 15: cells, digest")


def searches():
    """Two plane searches far past the admission bound, where margins share buckets most densely.

    About 1 s and 7 s; the CI time box turns a pathological slowdown into a
    failure instead of a hang.
    """
    for (d, n), pin in {
        (40, 200): "0858eae6589b98b3d6fee2403c932575aae10e01f495f6b15c920b479cbf1bb2",
        (60, 400): "0bec3de06593dedfa199372bde8d04ce32fdb15e163417646d1b17d97634a5da",
    }.items():
        digest = hashlib.sha256(gen_n2_search(d, n).to_text().encode()).hexdigest()
        require(digest, pin, f"plane family (2, {d}, {n}) digest")


def census():
    """The route or refusal of every cell of the theorem's range below the ceiling.

    N >= 2 and N + 1 <= n <= C(d + N, N), up to MAX_DEGREE_MONOMIALS:
    1,326,686 cells classified, nothing built, about 6 to 9 s.  A new route
    that admits a refused cell moves the refused counts here.
    """
    digest, refused, cells = hashlib.sha256(), Counter(), 0
    for N, d, top in ceiling_columns(2):
        for n in range(N + 1, top + 1):
            try:
                line = classify_route(N, d, n).value
            except RoutingError as exc:
                line = f"! {exc}"
                refused[N] += 1
            digest.update(f"{N} {d} {n} {line}\n".encode())
            cells += 1
    pin = (1326686, {2: 465506, 3: 20988, 4: 443}, "8e00472e1a3f25ee14ed8560685050ca6f2b5092e9b419f013c1fe48a19e22b3")
    require((cells, dict(refused), digest.hexdigest()), pin, "route census: cells, refused per N, digest")


def face_order():
    """gen_prop_faces against Brenner's layered families and the full set, up to the ceiling.

    Against the three-part construction in tests/families.py on 1981 cells:
    all 265 FacesAndDots cells and 1716 PropFaces cells, the first, the last
    and every 97th of each column (N, d).  Against every degree-d monomial
    on the 346 FullSet cells with N <= 139, the columns where d = 2 is
    admitted (above them only d = 1 is, the N + 1 variables).  About 45 s.
    """
    cells, full = [], 0
    for N, d, top in ceiling_columns(3):
        if binomial(2 + N, N) <= MAX_DEGREE_MONOMIALS and classify_route(N, d, top) is Route.FULL_SET:
            if gen_prop_faces(N, d, top).rows != tuple(enumerate_monomials(N, d)):
                raise SystemExit(f"the face order is not the full set at ({N}, {d}, {top})")
            full += 1
        # the face routes lie between the face-vertex cells and the Brenner cells
        faces = top - binomial(d - 1, N)
        column = range(binomial(d + N - 1, N - 1) + 2, min(top, faces + N + 1) + 1)
        routes = [(n, classify_route(N, d, n)) for n in column]
        prop = [n for n, route in routes if route is Route.PROP_FACES]
        cells += [(N, d, n, layered_prop_faces) for i, n in enumerate(prop) if i % 97 == 0 or i == len(prop) - 1]
        cells += [(N, d, n, faces_and_dots) for n, route in routes if route is Route.FACES_AND_DOTS]
    for N, d, n, reference in cells:
        if gen_prop_faces(N, d, n) != reference(N, d, n):
            raise SystemExit(f"the face order differs from the layered family at ({N}, {d}, {n})")
    dots = sum(reference is faces_and_dots for *_, reference in cells)
    require((len(cells) - dots, dots, full), (1716, 265, 346), "face order: PropFaces, FacesAndDots, FullSet cells")


def direct_scan():
    """Every family on N <= 5, d <= 8 certifies as the flat scan over all its rows.

    check_family reads a certificate off the walk's per-degree tally, and a
    family whose X_N divides only X_N^d off its core's; the reference reads
    it off the flat candidate loop's listing.  4830 families, 1876 of them
    such vertex families (1868 FaceVertex cells), 10 to 15 s.  dispatch
    certifies in column order, so a face family one row larger than the last
    one scanned in its column takes the added-row walk, and every face cell
    of a column takes a prefix of one face order, built once for each of the
    21 columns with N >= 3: both counts are pinned, so losing either path
    fails here.
    """
    cells = vertex_cells = 0
    with counting("_added_row_tallies") as walks:
        for N, d, n, _, fam in families(range(2, 6), range(2, 9)):
            cells += 1
            vertex_cells += [m[N] for m in fam.rows].count(0) == n - 1
            if check_family(fam) != reference_certificate(fam):
                raise SystemExit(f"certificate differs from the scan at ({N}, {d}, {n})")
    got = (cells, vertex_cells, walks["_added_row_tallies"], constructions._face_order.cache_info().misses)
    require(got, (4830, 1876, 2912, 21), "direct scan: families, vertex families, added-row walks, face orders")


def column():
    """All 1816 admitted cells of column (4, 12), every face route among them, in n order.

    452 FaceVertex cells build from (3, 12) and (2, 12), and the 325 Brenner
    cells from (4, 7), so the column moves among several columns, each
    keeping its own scan record and face order.  The full-walk, added-row and
    face-order counts are pinned, so records that thrash fail here, and so
    does a certificate that changes.  About 3 s; the CI time box turns a lost
    record into a failure instead of a slow pass.
    """
    digest, cells = hashlib.sha256(), 0
    with counting("_degree_tallies", "_added_row_tallies") as walks:
        for _, _, n, route, fam in families((4,), (12,)):
            cert = check_family(fam)
            digest.update(json.dumps([n, route.value, cert.to_json(), cert.by_degree]).encode() + b"\n")
            cells += 1
    got = (cells, *walks.values(), constructions._face_order.cache_info().misses, digest.hexdigest())
    pin = (1816, 42, 2317, 9, "3caef8e718eeb8387cfe15b89f38add734ce627cf9d28868e513de81f7e3cae8")
    require(got, pin, "column (4, 12): cells, full walks, added-row walks, face orders, digest")


def oracle():
    """The subset oracle agrees with the scan on every family with N <= 4, d <= 8.

    1869 families, about 19 s; (4, 8) takes most of it.
    """
    cells = 0
    for N, d, n, _, fam in families(range(2, 5), range(2, 9)):
        if brute_force_check(fam) != check_family(fam):
            raise SystemExit(f"oracle disagrees at ({N}, {d}, {n})")
        cells += 1
    require(cells, 1869, "families where the oracle agrees with the scan")


CHECKS = {check.__name__.replace("_", "-"): check for check in (
    plane, searches, census, face_order, direct_scan, column, oracle,
)}


def main(names):
    if unknown := [name for name in names if name not in CHECKS]:
        raise SystemExit(f"unknown check {', '.join(unknown)}; the checks are {', '.join(CHECKS)}")
    for name in names or CHECKS:
        # the counts are those of a fresh process: no check sees another's caches
        dispatch.cache_clear()
        check_family.cache_clear()
        CHECKS[name]()


if __name__ == "__main__":
    main(sys.argv[1:])
