"""Reference event census for the tests: the pairwise exclusivity rule and
the set-based Bron-Kerbosch search that `cut.maximal_orthogonal_sets` used
before its bitmask form.

`orthogonal(e, f)` decides one pair of `Event`s; `maximal_cliques(adj)`
lists the maximal cliques of a graph {vertex: set of neighbours};
`maximal_orthogonal_sets(n)` tests every event pair, searches the cliques
and classifies each one on `Event` objects, giving the same
`OrthogonalSetCensus` the library must give.
"""
import itertools

from bellpoly.cut import Event, OrthogonalSetCensus


def events(n):
    return [Event(i, j, a, b)
            for i, j in itertools.combinations(range(n), 2)
            for a in (1, -1) for b in (1, -1)]


def orthogonal(e: Event, f: Event) -> bool:
    if (e.i, e.j) == (f.i, f.j):
        return (e.a, e.b) != (f.a, f.b)
    shared = {e.i: e.a, e.j: e.b}
    for v, val in ((f.i, f.a), (f.j, f.b)):
        if v in shared:
            return shared[v] != val
    return False


def classify(members):
    contexts = {(e.i, e.j) for e in members}
    if len(members) == 4 and len(contexts) == 1:
        return "normalization"
    if len(members) == 4 and len(contexts) == 2:
        (c1, c2) = sorted(contexts)
        shared = set(c1) & set(c2)
        if len(shared) == 1:
            v = shared.pop()
            by_ctx = {c1: [], c2: []}
            for e in members:
                by_ctx[(e.i, e.j)].append(e)
            if all(len(v2) == 2 for v2 in by_ctx.values()):
                def shared_val(e):
                    return e.a if e.i == v else e.b
                s1 = {shared_val(e) for e in by_ctx[c1]}
                s2 = {shared_val(e) for e in by_ctx[c2]}
                if len(s1) == 1 and len(s2) == 1 and s1 != s2:
                    return "protocol"
    if len(members) == 3 and len(contexts) == 3:
        verts = set()
        for c in contexts:
            verts |= set(c)
        if len(verts) == 3:
            return "triples"
    return None


def maximal_cliques(adj):
    """Every maximal clique of the graph {vertex: set of neighbours}, by
    Bron-Kerbosch with Tomita pivoting over Python sets."""
    cliques = []

    def expand(clique, cand, excluded):
        if not cand and not excluded:
            cliques.append(clique)
            return
        pivot = max(cand | excluded, key=lambda u: len(cand & adj[u]))
        for v in cand - adj[pivot]:
            expand(clique + [v], cand & adj[v], excluded & adj[v])
            cand = cand - {v}
            excluded = excluded | {v}

    expand([], set(adj), set())
    return cliques


def maximal_orthogonal_sets(n: int) -> OrthogonalSetCensus:
    evs = events(n)
    adj = {x: set() for x in range(len(evs))}
    for x, y in itertools.combinations(range(len(evs)), 2):
        if orthogonal(evs[x], evs[y]):
            adj[x].add(y)
            adj[y].add(x)
    families = {"normalization": [], "protocol": [], "triples": []}
    for clique in maximal_cliques(adj):
        members = tuple(sorted(evs[x] for x in clique))
        kind = classify(members)
        if kind is None:
            raise AssertionError(f"unclassified maximal orthogonal set of size {len(members)}")
        families[kind].append(members)
    return OrthogonalSetCensus(**{kind: tuple(sorted(sets)) for kind, sets in families.items()})
