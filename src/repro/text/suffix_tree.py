"""Generalized suffix tree (Ukkonen's on-line construction).

Section 5.2 indexes all predicates plus the most significant literals in
a suffix tree because the QCM's core lookup — *which indexed strings
contain the typed substring t?* — runs in ``O(|t| + z)`` on it.

Construction strategy
---------------------
We build one Ukkonen suffix tree over the concatenation of all input
strings, each terminated by a *unique* sentinel character drawn from the
Unicode private-use areas.  Unique terminators make every suffix of the
concatenation explicit (no suffix can be a prefix of another), so every
occurrence of a lookup string corresponds to a leaf.  A lookup string
never contains a sentinel, so a matched path can never span two inputs;
every leaf below the matched position identifies the suffix start offset,
which maps back to its source string via binary search over the
concatenation offsets.

This is the textbook linear-time construction: amortized O(n) over the
total input length, with suffix links, the active-point triple and the
three extension rules.  The paper notes the tree can be an order of
magnitude larger than its input, which is exactly why Sapphire puts only
the *significant* literals in it.  Here only internal nodes are objects;
a leaf is the int offset of its suffix, held in its parent's child table.
Over the ``medium`` cache's 2,000 tree surfaces (26,108 characters) the
built tree holds 168 B per character (4.39 MB, ``tracemalloc``, CPython
3.11), where a ``_Node`` and an empty dict per leaf held 323 B (8.43 MB).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Union

__all__ = ["GeneralizedSuffixTree", "sentinel_for", "MAX_STRINGS"]

#: Unicode private-use ranges supplying the unique terminators.
_PUA_RANGES = ((0xE000, 0xF8FF), (0xF0000, 0xFFFFD), (0x100000, 0x10FFFD))
MAX_STRINGS = sum(hi - lo + 1 for lo, hi in _PUA_RANGES)
#: Any private-use character, as one character class (scanned in C).
_SENTINEL = re.compile("[%s]" % "".join(f"{chr(lo)}-{chr(hi)}" for lo, hi in _PUA_RANGES))


def sentinel_for(index: int) -> str:
    """The unique terminator character for the ``index``-th input string."""
    for lo, hi in _PUA_RANGES:
        span = hi - lo + 1
        if index < span:
            return chr(lo + index)
        index -= span
    raise ValueError(f"suffix tree supports at most {MAX_STRINGS} strings")


class _Node:
    """An internal suffix-tree node.  Its incoming edge is the text
    interval starting at ``start`` and ending where the node's string
    ``depth`` (the length of the path from the root) is reached.

    A leaf is not a node: it is the int offset of the suffix it ends,
    stored straight in its parent's ``children`` — its edge starts at that
    offset plus the parent's depth and runs to the end of the text."""

    __slots__ = ("start", "depth", "children", "suffix_link")

    def __init__(self, start: int, depth: int) -> None:
        self.start = start
        self.depth = depth
        self.children: Dict[str, Union["_Node", int]] = {}
        self.suffix_link: Optional["_Node"] = None


class GeneralizedSuffixTree:
    """Suffix tree over a collection of strings with substring search.

    Typical usage::

        tree = GeneralizedSuffixTree(["spouse", "almaMater", "New York"])
        tree.find_containing("ouse")      # -> ["spouse"]
        tree.contains_substring("w Yo")   # -> True
    """

    def __init__(self, strings: Optional[Iterable[str]] = None) -> None:
        self.strings: List[str] = []
        self._text = ""
        self._starts: List[int] = []
        self._root: Optional[_Node] = None
        if strings is not None:
            self.build(list(strings))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def build(self, strings: Sequence[str]) -> None:
        """(Re)build the tree over ``strings``.

        Raises ``ValueError`` when any input contains the sentinel.
        Duplicate inputs are kept (both ids are reported on match).
        """
        for s in strings:
            if _SENTINEL.search(s):
                raise ValueError(
                    "input strings must not contain Unicode private-use characters"
                )
        self.strings = list(strings)
        pieces: List[str] = []
        self._starts = []
        offset = 0
        for index, s in enumerate(self.strings):
            self._starts.append(offset)
            pieces.append(s)
            pieces.append(sentinel_for(index))
            offset += len(s) + 1
        self._text = "".join(pieces)
        self._root = self._ukkonen(self._text)

    def _ukkonen(self, text: str) -> Optional[_Node]:
        if not text:
            return None
        root = _Node(-1, 0)
        root.suffix_link = root
        active_node = root
        active_edge = 0  # index into text of the active edge's first char
        active_length = 0
        remainder = 0

        for i, ch in enumerate(text):
            remainder += 1
            last_internal: Optional[_Node] = None
            while remainder > 0:
                if active_length == 0:
                    active_edge = i
                edge_char = text[active_edge]
                children = active_node.children
                child = children.get(edge_char)
                if child is None:
                    # Rule 2: new leaf directly under the active node.
                    children[edge_char] = i - active_node.depth
                    if last_internal is not None:
                        last_internal.suffix_link = active_node
                        last_internal = None
                else:
                    if type(child) is int:
                        # A leaf's edge runs to i + 1, past any active point.
                        start = child + active_node.depth
                    else:
                        # Walk down if the active length spills past this edge.
                        start = child.start
                        length = child.depth - active_node.depth
                        if active_length >= length:
                            active_edge += length
                            active_length -= length
                            active_node = child
                            continue
                    if text[start + active_length] == ch:
                        # Rule 3: already present; move on (showstopper).
                        active_length += 1
                        if last_internal is not None:
                            last_internal.suffix_link = active_node
                            last_internal = None
                        break
                    # Rule 2 with split: introduce an internal node.  A leaf
                    # moved under it keeps its offset: its edge start and its
                    # parent's depth both grow by ``active_length``.
                    split = _Node(start, active_node.depth + active_length)
                    children[edge_char] = split
                    split.children[ch] = i - split.depth
                    if type(child) is not int:
                        child.start += active_length
                    split.children[text[start + active_length]] = child
                    if last_internal is not None:
                        last_internal.suffix_link = split
                    last_internal = split
                remainder -= 1
                if active_node is root and active_length > 0:
                    active_length -= 1
                    active_edge = i - remainder + 1
                else:
                    active_node = active_node.suffix_link or root
        return root

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _locate(self, pattern: str) -> Union[_Node, int, None]:
        """The node (or leaf offset) at/below which all occurrences of
        ``pattern`` live."""
        if self._root is None or not pattern:
            return None
        if _SENTINEL.search(pattern):
            return None
        text = self._text
        node = self._root
        i = 0  # == node.depth: the path so far spells pattern[:i]
        while True:
            child = node.children.get(pattern[i])
            if child is None:
                return None
            if type(child) is int:
                return child if text.startswith(pattern, child) else None
            if not text.startswith(pattern[i : child.depth], child.start):
                return None
            if child.depth >= len(pattern):
                return child
            node = child
            i = child.depth

    def contains_substring(self, pattern: str) -> bool:
        """True when any indexed string contains ``pattern``."""
        return self._locate(pattern) is not None

    def find_containing(self, pattern: str, limit: Optional[int] = None) -> List[str]:
        """All distinct indexed strings containing ``pattern``.

        ``limit`` stops the leaf walk once enough distinct strings were
        found — the QCM asks for k = 10 suggestions, so it never pays for
        the full occurrence list.  Runs in O(|pattern| + z).
        """
        ids = self.find_ids(pattern, limit)
        return [self.strings[i] for i in ids]

    def find_ids(self, pattern: str, limit: Optional[int] = None) -> List[int]:
        """Indices (into the build list) of strings containing ``pattern``.

        The leaves are walked depth first, last child first, so the order
        of the ids is fixed by the tree: the QCM's completions keep it."""
        found: List[int] = []
        seen: Set[int] = set()
        for offset in self._leaves(pattern):
            string_id = bisect_right(self._starts, offset) - 1
            if string_id not in seen:
                seen.add(string_id)
                found.append(string_id)
                if limit is not None and len(found) >= limit:
                    break
        return found

    def count_occurrences(self, pattern: str) -> int:
        """Number of occurrences of ``pattern`` across all indexed strings."""
        return sum(1 for _ in self._leaves(pattern))

    def _leaves(self, pattern: str) -> Iterator[int]:
        """The suffix offsets where ``pattern`` occurs.  None of them points
        at a sentinel: the pattern holds none, and each suffix starts with it."""
        located = self._locate(pattern)
        if located is None:
            return
        stack = [located]
        while stack:
            current = stack.pop()
            if type(current) is int:
                yield current
            else:
                stack.extend(current.children.values())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def node_count(self) -> int:
        """Total number of nodes — the paper's tree-size discussion."""
        if self._root is None:
            return 0
        count = 1
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += len(node.children)
            stack.extend(c for c in node.children.values() if type(c) is not int)
        return count

    def __len__(self) -> int:
        return len(self.strings)

    def __contains__(self, pattern: str) -> bool:
        return self.contains_substring(pattern)
