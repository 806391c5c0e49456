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
magnitude larger than its input — true here as well, which is exactly why
Sapphire puts only the *significant* literals in it.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
    """A suffix-tree node; the incoming edge is stored on the node itself
    as the half-open interval [start, end) into the concatenated text.
    ``end`` is None for leaves (implicitly the global end during build)."""

    __slots__ = ("start", "end", "children", "suffix_link", "suffix_index")

    def __init__(self, start: int, end: Optional[int]) -> None:
        self.start = start
        self.end = end
        self.children: Dict[str, "_Node"] = {}
        self.suffix_link: Optional["_Node"] = None
        self.suffix_index: int = -1  # set for leaves after construction


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
        if self._root is not None:
            self._assign_suffix_indices()

    def _ukkonen(self, text: str) -> Optional[_Node]:
        if not text:
            return None
        root = _Node(-1, -1)
        root.suffix_link = root
        active_node = root
        active_edge = 0  # index into text of the active edge's first char
        active_length = 0
        remainder = 0
        global_end = [0]  # boxed so leaves can share it conceptually

        def edge_length(node: _Node) -> int:
            end = node.end if node.end is not None else global_end[0]
            return end - node.start

        for i, ch in enumerate(text):
            global_end[0] = i + 1
            remainder += 1
            last_internal: Optional[_Node] = None
            while remainder > 0:
                if active_length == 0:
                    active_edge = i
                edge_char = text[active_edge]
                child = active_node.children.get(edge_char)
                if child is None:
                    # Rule 2: new leaf directly under the active node.
                    leaf = _Node(i, None)
                    active_node.children[edge_char] = leaf
                    if last_internal is not None:
                        last_internal.suffix_link = active_node
                        last_internal = None
                else:
                    # Walk down if the active length spills past this edge.
                    length = edge_length(child)
                    if active_length >= length:
                        active_edge += length
                        active_length -= length
                        active_node = child
                        continue
                    if text[child.start + active_length] == ch:
                        # Rule 3: already present; move on (showstopper).
                        active_length += 1
                        if last_internal is not None:
                            last_internal.suffix_link = active_node
                            last_internal = None
                        break
                    # Rule 2 with split: introduce an internal node.
                    split = _Node(child.start, child.start + active_length)
                    active_node.children[edge_char] = split
                    leaf = _Node(i, None)
                    split.children[ch] = leaf
                    child.start += active_length
                    split.children[text[child.start]] = child
                    if last_internal is not None:
                        last_internal.suffix_link = split
                    last_internal = split
                remainder -= 1
                if active_node is root and active_length > 0:
                    active_length -= 1
                    active_edge = i - remainder + 1
                else:
                    active_node = active_node.suffix_link or root
        # Freeze leaf ends.
        n = len(text)
        stack = [root]
        while stack:
            node = stack.pop()
            if node.end is None:
                node.end = n
            stack.extend(node.children.values())
        return root

    def _assign_suffix_indices(self) -> None:
        """Compute, for every leaf, the start offset of its suffix."""
        assert self._root is not None
        n = len(self._text)
        stack: List[Tuple[_Node, int]] = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            edge = 0 if node.start < 0 else (node.end - node.start)  # type: ignore[operator]
            total = depth + edge
            if not node.children:
                node.suffix_index = n - total
                continue
            for child in node.children.values():
                stack.append((child, total))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _locate(self, pattern: str) -> Optional[_Node]:
        """Find the node at/below which all occurrences of ``pattern`` live."""
        if self._root is None or not pattern:
            return None
        if _SENTINEL.search(pattern):
            return None
        node = self._root
        i = 0
        while i < len(pattern):
            child = node.children.get(pattern[i])
            if child is None:
                return None
            end = child.end
            assert end is not None
            j = child.start
            while j < end and i < len(pattern):
                if self._text[j] != pattern[i]:
                    return None
                i += 1
                j += 1
            node = child
        return node

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
        """Indices (into the build list) of strings containing ``pattern``."""
        node = self._locate(pattern)
        if node is None:
            return []
        found: List[int] = []
        seen: Set[int] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if not current.children:
                string_id = self._string_for_offset(current.suffix_index)
                if string_id is not None and string_id not in seen:
                    seen.add(string_id)
                    found.append(string_id)
                    if limit is not None and len(found) >= limit:
                        return found
                continue
            stack.extend(current.children.values())
        return found

    def count_occurrences(self, pattern: str) -> int:
        """Number of occurrences of ``pattern`` across all indexed strings."""
        node = self._locate(pattern)
        if node is None:
            return 0
        count = 0
        stack = [node]
        while stack:
            current = stack.pop()
            if not current.children:
                if self._string_for_offset(current.suffix_index) is not None:
                    count += 1
                continue
            stack.extend(current.children.values())
        return count

    def _string_for_offset(self, offset: int) -> Optional[int]:
        """Map a concatenation offset to its source string id.

        Offsets that point *at* a sentinel (the suffix consisting of just
        separators/terminators) belong to no string and return None.
        """
        if offset >= len(self._text) or _SENTINEL.match(self._text, offset):
            return None
        index = bisect_right(self._starts, offset) - 1
        return index if index >= 0 else None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def node_count(self) -> int:
        """Total number of nodes — the paper's tree-size discussion."""
        if self._root is None:
            return 0
        count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count

    def __len__(self) -> int:
        return len(self.strings)

    def __contains__(self, pattern: str) -> bool:
        return self.contains_substring(pattern)
