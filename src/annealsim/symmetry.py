"""Signed-permutation symmetries of an Ising model and the orbits they leave.

A signed permutation ``g = (pi, s)`` maps the spins ``sigma`` to ``sigma'``
with ``sigma'[pi(i)] = s[i] * sigma[i]``: it permutes the qubits, then flips
with X the qubits in ``m = {pi(i) : s[i] = -1}``.  On a basis-state index
(qubit ``i`` on bit ``i``, 0-based here) it maps ``v`` to ``pi(v) ^ m``.  It
commutes with the driver ``sum_k X_k`` always, and with the rest of ``H(s)``
where

    J[pi(i), pi(j)] == s[i] s[j] J[i, j],   h[pi(i)] == s[i] h[i],
    x[pi(i)] == x[i],                        z[pi(i)] == s[i] z[i],

for couplings ``J``, fields ``h`` and X and Z offsets ``x`` and ``z``.
:func:`signed_symmetries` finds generators of the group of those, checking
each one on the terms by exact float equality, and :func:`orbit_labels` the
orbits of the basis states under it.

The search colours each qubit by data that every symmetry keeps, refines the
colours (1-dimensional Weisfeiler-Lehman), and then backtracks over the
colour-preserving permutations by individualization and refinement, pruning
by the orbits of the generators found so far (McKay & Piperno, J. Symb.
Comput. 60 (2014) 94).  The sign ``s`` of a candidate comes from the field
signs where there are fields, else along a spanning tree of the couplings.
The search stops at a node budget; a symmetry it misses costs speed, never
accuracy, since every generator returned is verified.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

# search nodes (refinements) at most; the uniform all-to-all model on 16
# qubits, the widest group the package can meet, takes about 140
_SEARCH_NODES = 2048


def _rank(keys: list) -> list[int]:
    """Each key's rank among the distinct keys, in sorted order."""
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys]


class _Search:
    """Individualization-refinement search for the signed automorphisms."""

    def __init__(self, J: np.ndarray, h: np.ndarray, x: np.ndarray, z: np.ndarray):
        self.n = n = h.size
        self.J, self.h, self.x, self.z = J, h, x, z
        # the sign of a qubit's field (or Z offset): s[i] = gauge[pi(i)] * gauge[i]
        self.gauge = np.sign(np.where(h != 0, h, z))
        fixed = self.gauge != 0
        # edge labels kept by every symmetry: the coupling between two
        # qubits with fields times both field signs, else its magnitude
        edges = {(i, j): (True, float(J[i, j] * self.gauge[i] * self.gauge[j]))
                 if fixed[i] and fixed[j] else (False, abs(float(J[i, j])))
                 for i, j in zip(*np.nonzero(J))}
        code = dict(zip(sorted(set(edges.values())), range(len(edges))))
        self.neighbours = [[] for _ in range(n)]
        for (i, j), label in edges.items():
            self.neighbours[i].append((code[label], j))
        # frustrated triangles through each qubit, and all triangles
        sign = np.sign(J)
        frustrated = np.einsum("ij,jk,ki->i", sign, sign, sign)
        triangles = np.einsum("ij,jk,ki->i", *[np.abs(sign)] * 3)
        vertex = [(float(x[i]), float(self.gauge[i] * h[i]), float(self.gauge[i] * z[i]),
                   float(frustrated[i]), float(triangles[i]),
                   tuple(sorted(c for c, _ in self.neighbours[i]))) for i in range(n)]
        self.root = self.refine(_rank(vertex))
        self.nodes = _SEARCH_NODES
        # a spanning forest of the couplings, rooted at a qubit with a field
        # where its component has one: (qubit, parent or -1) in BFS order
        self.forest = []
        seen = np.zeros(n, bool)
        for root in sorted(range(n), key=lambda i: (not fixed[i], i)):
            if seen[root]:
                continue
            seen[root] = True
            queue = [(root, -1)]
            for qubit, _ in queue:
                for _, j in self.neighbours[qubit]:
                    if not seen[j]:
                        seen[j] = True
                        queue.append((j, qubit))
            self.forest += queue

    def refine(self, colors: list[int]) -> list[int]:
        """The coarsest equitable refinement, as ranks of the signatures."""
        cells = len(set(colors))
        while True:
            colors = _rank([(colors[i], tuple(sorted((c, colors[j]) for c, j in nbrs)))
                            for i, nbrs in enumerate(self.neighbours)])
            if len(set(colors)) == cells:
                return colors
            cells = len(set(colors))

    @staticmethod
    def individualize(colors: list[int], v: int) -> list[int]:
        """``v`` split off from its cell, just before the rest of it."""
        return [2 * c + (i != v) for i, c in enumerate(colors)]

    @staticmethod
    def target(colors: list[int]) -> list[int]:
        """The smallest cell of two or more qubits, of the lowest colour."""
        sizes = Counter(colors)
        color = min((size, c) for c, size in sizes.items() if size > 1)[1]
        return [i for i, c in enumerate(colors) if c == color]

    def signs(self, perm: list[int]) -> np.ndarray | None:
        """The signs ``s`` that make ``(perm, s)`` a symmetry, or None."""
        J, gauge = self.J, self.gauge
        s = np.ones(self.n)
        for qubit, parent in self.forest:
            if gauge[qubit] != 0:
                s[qubit] = gauge[perm[qubit]] * gauge[qubit]
            elif parent >= 0:
                image = J[perm[parent], perm[qubit]]
                if image not in (J[parent, qubit], -J[parent, qubit]):
                    return None
                s[qubit] = s[parent] if image == J[parent, qubit] else -s[parent]
        ok = (np.array_equal(J[np.ix_(perm, perm)], J * s[:, None] * s[None, :])
              and np.array_equal(self.h[perm], s * self.h)
              and np.array_equal(self.x[perm], self.x)
              and np.array_equal(self.z[perm], s * self.z))
        return s if ok else None

    def leaf(self, colors: list[int], depth: int) -> tuple[list[int], np.ndarray] | None:
        """A symmetry that maps the first leaf to a leaf below this node, or None."""
        self.nodes -= 1
        if self.nodes < 0:
            return None
        colors = self.refine(colors)
        if Counter(colors) != self.shapes[depth]:
            return None
        if depth == len(self.shapes) - 1:
            perm = [0] * self.n
            for a, c in enumerate(self.first_leaf):
                perm[a] = colors.index(c)
            s = self.signs(perm)
            return None if s is None else (perm, s)
        for u in self.target(colors):
            found = self.leaf(self.individualize(colors, u), depth + 1)
            if found is not None or self.nodes < 0:
                return found
        return None

    def run(self) -> tuple[list[tuple[list[int], np.ndarray]], int]:
        """Generators ``(perm, s)`` of the permutation part, and its order."""
        path, colors = [], self.root
        while len(set(colors)) < self.n:
            cell = self.target(colors)
            path.append((colors, cell))
            colors = self.refine(self.individualize(colors, cell[0]))
        self.first_leaf = colors
        self.shapes = [Counter(c) for c, _ in path] + [Counter(colors)]
        parent = list(range(self.n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        generators, order = [], 1
        # bottom up: every generator found so far fixes the path above this level
        for depth in reversed(range(len(path))):
            colors, cell = path[depth]
            v, failed = cell[0], []
            for w in cell[1:]:
                if find(w) == find(v) or any(find(w) == find(f) for f in failed):
                    continue
                found = self.leaf(self.individualize(colors, w), depth + 1)
                if found is None:
                    failed.append(w)
                else:
                    generators.append(found)
                    for i, j in enumerate(found[0]):
                        parent[find(i)] = find(j)
                if self.nodes < 0:
                    break
            order *= sum(find(u) == find(v) for u in cell)
            if self.nodes < 0:
                break
        return generators, order


def signed_symmetries(J: np.ndarray, h: np.ndarray, x: np.ndarray,
                      z: np.ndarray) -> tuple[list[tuple[tuple[int, ...], int]], int]:
    """Generators ``(pi, m)`` of the signed-permutation symmetries of a model,
    and the order of the group they generate.

    ``J`` is the symmetric coupling matrix with a zero diagonal, ``h`` the
    fields and ``x``, ``z`` the offsets, all 0-based.  ``pi`` is a tuple with
    ``pi[i]`` the image of qubit ``i``, and ``m`` the bit mask of the qubits
    X-flipped after the permutation.  Besides the permutations found by the
    search, each connected component of the couplings with no field and no
    Z offset on any of its qubits may be flipped alone; those flips are
    generators too, and the global spin flip is their product.
    """
    n = h.size
    search = _Search(J, h, x, z)
    found, order = search.run()
    generators = [(tuple(perm), sum(1 << perm[i] for i in range(n) if s[i] < 0))
                  for perm, s in found]
    # the connected components: each root of the forest starts one
    components = []
    for qubit, parent in search.forest:
        if parent < 0:
            components.append([])
        components[-1].append(qubit)
    for component in components:
        if not (h[component].any() or z[component].any()):
            generators.append((tuple(range(n)), sum(1 << q for q in component)))
            order *= 2
    return generators, order


def _bit_images(n: int, generators: list[tuple[tuple[int, ...], int]]) -> list[np.ndarray]:
    """``pi(v) ^ m`` for every basis state ``v``, for each generator, from
    one table per byte of ``v``."""
    v = np.arange(1 << n)
    chunks = [(lo, (v >> lo) & 255) for lo in range(0, n, 8)]
    byte = np.arange(256)
    images = []
    for perm, mask in generators:
        out = np.full(1 << n, mask)
        if perm != tuple(range(n)):
            for lo, chunk in chunks:
                table = np.zeros(256, dtype=np.int64)
                for b in range(min(8, n - lo)):
                    table |= ((byte >> b) & 1) << perm[lo + b]
                out ^= table[chunk]
        else:
            out ^= v
        images.append(out)
    return images


def orbit_labels(n: int, generators: list[tuple[tuple[int, ...], int]]) -> np.ndarray:
    """The smallest member of each basis state's orbit, from the generators alone.

    Labels spread along every generator both ways, and each label then takes
    its own label, until nothing changes; the group is never enumerated.
    """
    labels = np.arange(1 << n)
    images = _bit_images(n, generators)
    while True:
        before = labels.copy()
        for image in images:
            np.minimum(labels, labels[image], out=labels)
            labels[image] = np.minimum(labels[image], labels)
        labels = labels[labels]
        if np.array_equal(labels, before):
            return labels
