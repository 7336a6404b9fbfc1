"""psi of a graph under the chromatic character, from the weighted
chromatic symmetric functions of its quotients.

A coloring fixed by g is constant on the cycles of g.  So the colorings
g fixes are the proper colorings of the quotient graph G/g: each cycle
of g becomes one vertex, weighted by its length, and parallel edges are
merged.  A cycle that holds both ends of an edge leaves no proper
coloring, so then every coefficient is 0 at g.  psi's value at g on a
composition alpha counts the g-fixed proper colorings of type alpha,
which is the M_alpha coefficient of the weighted chromatic symmetric
function of G/g (Stanley 1995, Adv. Math. 111; the weighted form in Crew
and Spirkl 2020, European J. Combin. 89):

    X = sum over edge sets S of (-1)^|S| p_lambda(S),

where lambda(S) lists the weights of the components of (V, S).  The M_alpha
coefficient of p_lambda counts the maps from the parts of lambda to the
parts of alpha whose fibres sum to alpha.

Independent of psi: nothing here comes from hopfchrom's structures,
chromatic or complexes modules.  It reads the vertex list, the edges and
the class representatives, called as maps on the vertices."""

from functools import cache


def compositions(n):
    """Every composition of n >= 1, one per set of cut points."""
    out = []
    for cuts in range(1 << (n - 1)):
        parts, run = [], 1
        for i in range(n - 1):
            if cuts >> i & 1:
                parts.append(run)
                run = 0
            run += 1
        out.append(tuple(parts) + (run,))
    return out


def quotient(vertices, edges, g):
    """The weights of the cycles of g and the merged edges between them,
    or None for the edges when a cycle holds both ends of an edge."""
    cycle, weights = {}, []
    for v in vertices:
        if v in cycle:
            continue
        x = v
        weights.append(0)
        while x not in cycle:
            cycle[x] = len(weights) - 1
            weights[-1] += 1
            x = g(x)
    merged = set()
    for u, v in edges:
        a, b = sorted((cycle[u], cycle[v]))
        if a == b:
            return weights, None
        merged.add((a, b))
    return weights, sorted(merged)


def power_sum_expansion(weights, edges):
    """{lambda: c} with X = sum of c p_lambda, over every edge subset S of
    the weighted graph; lambda(S) is sorted, largest part first."""
    out = {}
    for subset in range(1 << len(edges)):
        root = list(range(len(weights)))

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        for i, (a, b) in enumerate(edges):
            if subset >> i & 1:
                root[find(a)] = find(b)
        sums = {}
        for x, w in enumerate(weights):
            r = find(x)
            sums[r] = sums.get(r, 0) + w
        lam = tuple(sorted(sums.values(), reverse=True))
        out[lam] = out.get(lam, 0) + (-1) ** subset.bit_count()
    return out


@cache
def maps(parts, sums):
    """The maps from the parts to the positions of sums whose fibres add
    up to sums: the M_sums coefficient of p_parts."""
    if not parts:
        return int(not any(sums))
    p, rest = parts[0], parts[1:]
    return sum(maps(rest, sums[:j] + (s - p,) + sums[j + 1:])
               for j, s in enumerate(sums) if s >= p)


def class_values(vertices, edges, reps):
    """{alpha: values}: for every composition alpha of len(vertices), the
    M_alpha coefficient of the weighted chromatic symmetric function of
    G/g at each g of reps, in order.

    Permuting the parts of alpha permutes the positions the maps go to,
    so the count is that of alpha sorted."""
    by_rep = []
    for g in reps:
        weights, merged = quotient(vertices, edges, g)
        by_rep.append({} if merged is None else power_sum_expansion(weights, merged))
    out, memo = {}, {}
    for alpha in compositions(len(vertices)):
        mu = tuple(sorted(alpha, reverse=True))
        if mu not in memo:
            memo[mu] = tuple(sum(c * maps(lam, mu) for lam, c in X.items())
                             for X in by_rep)
        out[alpha] = memo[mu]
    return out
