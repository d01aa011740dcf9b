"""DOT renderings of the exchange tree and of seeds on the Cayley tree.

Two pictures.  The exchange tree: one graph node per seed, labeled by its
mutation path, with edges labeled by the mutated vertex.  The Cayley
fragment: the subtree of the Cayley graph spanned by the identity and a
seed's reflections, where each reflection sits as an extra node in the
middle of its edge, filled green when its c-vector is a positive root and
outlined red when negative.

Both emitters refuse to build graphs past a node cap; DOT files in the
tens of thousands of nodes stop being pictures.
"""

from __future__ import annotations

from .errors import CapExceeded
from .explore import iter_seeds
from .roots import Sign, YSeed, root_sign
from .words import Word

NODE_CAP = 5000


def _quoted(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def _path_label(path: tuple[int, ...]) -> str:
    return ",".join(map(str, path)) if path else "e"


def _word_label(word: Word) -> str:
    return " ".join(f"s{i}" for i in word) if word else "e"


def exchange_tree_dot(initial: YSeed, depth: int, node_cap: int = NODE_CAP) -> str:
    """The mutation tree to the given depth as a DOT digraph.

    Seeds are labeled by their mutation paths ("e" for the root), edges by
    the mutated vertex.  Raises CapExceeded once the tree grows past
    node_cap seeds.
    """
    root_len = len(initial.path)
    lines = ["digraph exchange_tree {"]
    count = 0
    for seed in iter_seeds(initial, depth):
        count += 1
        if count > node_cap:
            raise CapExceeded(
                f"exchange tree at depth {depth} exceeds {node_cap} nodes"
            )
        name = _quoted(_path_label(seed.path))
        lines.append(f"  {name};")
        if len(seed.path) > root_len:
            parent = _quoted(_path_label(seed.path[:-1]))
            lines.append(f"  {parent} -> {name} [label={_quoted(str(seed.path[-1]))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cayley_fragment_dot(seed: YSeed, node_cap: int = NODE_CAP) -> str:
    """One seed drawn on the Cayley tree, as a DOT graph.

    Vertices are the group elements on the geodesics from the identity to
    the seed's reflections; plain tree edges carry their generator label.
    Each reflection's own edge is split by a midpoint node labeled with
    the reflection word and colored by the sign of its c-vector.
    """
    # midnode per reflection edge; c-vectors of one seed never share an edge
    marked: dict[tuple[Word, Word], Sign] = {}
    vertices: set[Word] = {()}
    edges: set[tuple[Word, Word]] = set()
    for c, r in zip(seed.cvectors, seed.reflections):
        marked[r.edge()] = root_sign(c)
        stem = r.prefix + (r.core,)
        for cut in range(len(stem)):
            vertices.add(stem[: cut + 1])
            edges.add((stem[:cut], stem[: cut + 1]))

    total = len(vertices) + len(marked)
    if total > node_cap:
        raise CapExceeded(f"Cayley fragment needs {total} nodes, cap is {node_cap}")

    lines = ["graph cayley_fragment {"]
    for w in sorted(vertices, key=lambda w: (len(w), w)):
        lines.append(f"  {_quoted('w|' + _word_label(w))} [label={_quoted(_word_label(w))}];")
    for (u, v) in sorted(marked, key=lambda e: (len(e[1]), e[1])):
        mid = _quoted("r|" + _word_label(u + (v[-1],) + tuple(reversed(u))))
        label = _quoted(_word_label(u + (v[-1],) + tuple(reversed(u))))
        if marked[(u, v)] is Sign.POSITIVE:
            lines.append(f"  {mid} [label={label}, style=filled, fillcolor=green];")
        else:
            lines.append(f"  {mid} [label={label}, color=red];")
    for (u, v) in sorted(edges, key=lambda e: (len(e[1]), e[1])):
        uid = _quoted("w|" + _word_label(u))
        vid = _quoted("w|" + _word_label(v))
        gen = _quoted(f"s{v[-1]}")
        if (u, v) in marked:
            mid = _quoted("r|" + _word_label(u + (v[-1],) + tuple(reversed(u))))
            lines.append(f"  {uid} -- {mid} [label={gen}];")
            lines.append(f"  {mid} -- {vid};")
        else:
            lines.append(f"  {uid} -- {vid} [label={gen}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
