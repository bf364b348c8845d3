"""Name-scope tree and longest-common-prefix clustering.

TAP's pruning algorithm (paper §4.3, Algorithm 1) exploits that framework
variable names encode the layer hierarchy: all ops under one layer share a
name-scope prefix.  This module turns a flat list of scoped names into a
trie of scopes and provides the longest-common-prefix grouping the algorithm
iterates over, level by level.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "ScopeNode",
    "build_scope_tree",
    "scopes_at_depth",
    "longest_common_prefix",
    "normalize_scope",
    "INDEX_RE",
]

#: Trailing layer indices (``layer_3``, ``block3``, ``expert_07``) that
#: distinguish repeated instances of the same structural block.
INDEX_RE = re.compile(r"^(.*?)[_\-]?(\d+)$")


@dataclass
class ScopeNode:
    """One node of the scope trie.

    ``ops`` holds names of operators living *directly* at this scope;
    deeper operators live in descendants.  ``size`` counts all operators in
    the subtree.
    """

    name: str                      # path component, "" for the root
    path: str                      # full scope path from the root
    depth: int
    children: Dict[str, "ScopeNode"] = field(default_factory=dict)
    ops: List[str] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.ops) + sum(c.size for c in self.children.values())

    def walk(self) -> Iterable["ScopeNode"]:
        """Pre-order traversal of the subtree (iterative: a recursive
        generator pays one frame per level for every node it yields)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children.values()))

    def all_op_names(self) -> List[str]:
        """Every operator name in the subtree, pre-order."""
        out = list(self.ops)
        for child in self.children.values():
            out.extend(child.all_op_names())
        return out

    def find(self, path: str) -> Optional["ScopeNode"]:
        """Locate the scope node for *path* ('' returns self)."""
        if path == "":
            return self
        node = self
        for part in path.split("/"):
            node = node.children.get(part)
            if node is None:
                return None
        return node


def build_scope_tree(op_names: Iterable[str]) -> ScopeNode:
    """Build the scope trie from fully scoped operator names."""
    root = ScopeNode(name="", path="", depth=0)
    for full in op_names:
        parts = full.split("/")
        node = root
        for part in parts[:-1]:
            child = node.children.get(part)
            if child is None:
                path = f"{node.path}/{part}" if node.path else part
                child = ScopeNode(name=part, path=path, depth=node.depth + 1)
                node.children[part] = child
            node = child
        node.ops.append(full)
    return root


def scopes_at_depth(root: ScopeNode, depth: int) -> List[ScopeNode]:
    """All scope nodes at exactly *depth* (root is depth 0)."""
    return [n for n in root.walk() if n.depth == depth]


def max_depth(root: ScopeNode) -> int:
    """Deepest scope depth present in the trie."""
    return max((n.depth for n in root.walk()), default=0)


def longest_common_prefix(names: List[str]) -> str:
    """Longest common *scope* prefix of scoped names.

    Operates on whole path components — ``a/bc`` and ``a/bd`` share prefix
    ``a``, not ``a/b``.  Empty input yields ``""``.
    """
    if not names:
        return ""
    split = [n.split("/") for n in names]
    prefix: List[str] = []
    for parts in zip(*split):
        first = parts[0]
        if all(p == first for p in parts):
            prefix.append(first)
        else:
            break
    return "/".join(prefix)


def normalize_scope(scope: str) -> str:
    """Strip a trailing repeat index from a scope path's last component.

    ``encoder/layer_3`` → ``encoder/layer``; used to group sibling scopes
    that are instances of one repeated block.  Non-indexed scopes are
    returned unchanged.
    """
    if not scope:
        return scope
    head, _, last = scope.rpartition("/")
    m = INDEX_RE.match(last)
    if not m or not m.group(1):
        return scope
    base = m.group(1)
    return f"{head}/{base}" if head else base


def group_sibling_scopes(nodes: List[ScopeNode]) -> Dict[str, List[ScopeNode]]:
    """Group scope nodes whose normalised paths coincide.

    The grouping key is the normalised path, so ``layer_0 .. layer_23``
    under one parent fall into one group of 24 — the candidate shared
    subgraph instances of Algorithm 1.
    """
    groups: Dict[str, List[ScopeNode]] = {}
    for node in nodes:
        groups.setdefault(normalize_scope(node.path), []).append(node)
    return groups
