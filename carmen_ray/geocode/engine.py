"""Forward / reverse / id geocoding over Ray Data query batches.

Fused fast path: one actor-pool stage (`ForwardGeocoder`) holds the
compact index tables (phrase table as a sorted numpy array for
exact/prefix binary search, grid rows, features) and runs
phrasematch → stack&coalesce → verify → format per query batch —
queries stream through `map_batches(ForwardGeocoder, concurrency=N)`.

Staged scale path (documented in SURVEY.md §3.2; `forward_staged`):
phrasematch emits (query_id, …) rows → groupby(query_id) shuffle →
map_groups(coalesce+verify). Same per-query logic, two stages, used
when the index is sharded by phrase-prefix bins across actor pools and
a single actor can't hold a layer.

Pipeline semantics parity targets (reference files):
- phrasematch windows: lib/geocoder/phrasematch.js:98-296 (exact+prefix;
  weight = covered-tokens / query-length, phrasematch.js:321-383)
- coalesce: see coalesce.py
- verify sort: lib/geocoder/verifymatch.js:986-1053 (deterministic full
  tie-break incl. feature id)
- dedup: format-features.js:252-318 place_name dedup
- formatting: place_name = "text, parent text, …" (format-features.js
  getPlaceName with the default {place_name} template)
- proximity: scoredist (lib/util/proximity.js:95-132); ghost penalty and
  null-address penalty (proximity.js:212-222)
"""

from __future__ import annotations

import json
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from .. import constants
from ..config import format_for_language
from ..geom.cells import hex_cell, s2_cell
from ..geom.ops import dist_point_to_geom_miles, nearest_point_on_multiline, point_in_geom
from ..geom.tile import lonlat_to_tile
from ..text.closest_lang import closest_lang, closest_lang_label
from ..text.termops import get_weights
from ..text.tokenize import as_reverse, normalize_query, parse_id_query, tokenize
from ..util.hashing import phrase_hash
from ..util import proximity as prox
from ..util.jsmath import round_to
from ..util.permute import continuous_masks
from .coalesce import (
    ChunkedVerifyPlanner,
    Grid,
    Phrasematch,
    Stack,
    stack_and_coalesce,
)

TMPID_SHIFT = 1 << 25  # tmpid = idx * 2^25 + fid (context.js:2,423,501)
_LANG_LO_MASK64 = (1 << 64) - 1


class Feature:
    """Lightweight row view over the numpy-backed feature store."""

    __slots__ = ("_ix", "_d")

    def __init__(self, d, ix):
        self._d = d
        self._ix = ix

    def __getattr__(self, name):
        try:
            return self._d[name][self._ix]
        except KeyError:
            # absent column → AttributeError so getattr(f, col, default)
            # works on indexes built before the column existed
            raise AttributeError(name) from None


class IndexData:
    """Compact in-actor index: sorted numpy columns (no per-row pandas in
    the hot path) + lookup dicts + a per-feature context cache."""

    def __init__(self, features: pa.Table | None, phrase_grid: pa.Table,
                 freq: dict, max_score: float, layer_zooms: dict, config=None,
                 presorted: bool = False, idx_rank: dict | None = None,
                 build_cell_index: bool = True, idx_layer: dict | None = None,
                 layer_bounds: dict | None = None):
        from .. import constants as _c

        self.config = config
        if config is not None:
            self.simple, _cplx, self.global_rules = config.build_replacers()
            # complex QUERY replacer (phrasematch.js:80 + index.js's
            # complex_query_replacer): the authored regex/span rules
            # without the index-side unambiguous inverses
            self.complex_query_rules = [r for r in _cplx
                                        if not getattr(r, "inverse", False)]
        else:
            self.simple, self.global_rules = None, []
            self.complex_query_rules = []

        # symspell-style delete-1 map over the indexed token vocabulary
        # (the fuzzy-phrase FST role, ST1): correction candidates for
        # Damerau-Levenshtein ≤ 1 lookup of misspelled query tokens.
        self.vocab = {t for t in freq if t != "__COUNT__"}
        self.deletes: dict[str, list[str]] = {}
        for w in self.vocab:
            if len(w) < _c.MIN_CORRECTION_LENGTH:
                continue
            for i in range(len(w)):
                self.deletes.setdefault(w[:i] + w[i + 1:], []).append(w)
        self._phrase_deletes: dict[str, list[str]] | None = None
        self._phrase_vocab: set[str] = set()
        self._prefix_deletes: dict[str, list[str]] | None = None
        self._prefix_vocab: set[str] = set()
        # bounded per-actor caches for the fuzzy window lookups (the
        # FST equivalent answers these from its own structure; here the
        # delete-1 probing is redone per distinct window, so hot windows
        # are worth remembering)
        self._fuzzy_cache: dict[str, list] = {}
        self._fuzzy_prefix_cache: dict[str, list] = {}
        # per-feature matching-text hash tables (get_matching_text)
        self._mt_cache: dict[tuple, dict] = {}
        # full get_matching_text result memo — the function is pure in
        # (feature, phash, language, query_text, closest_key, display)
        # and hot features repeat across queries
        self._mt_out_cache: dict[tuple, tuple] = {}
        # per-feature output bbox (AM-aware; None for points)
        self._bbox_cache: dict[int, list | None] = {}
        # geocoder_categories per layer (phrasematch.js:348-353),
        # scoreranges for subtype filters (filter-sources.js:82-110),
        # worldview binding (context.js:37-67)
        self.layer_categories: dict[str, set] = {}
        self.layer_scoreranges: dict[str, dict] = {}
        self.layer_worldview: dict[str, str] = {}
        self.ignore_order_layers: set[str] = set()
        # geocoder_coalesce_radius (indexer/index.js:233): per-source
        # scoredist radius; unset layers use the zoom-scaled default
        self.layer_coalesce_radius: dict[str, float] = {}
        # geocoder_reverse_mode sources (context.js:456): eligible for
        # distscore-ranked reverse candidate picks under
        # reverseMode='score'
        self.reverse_mode_layers: set[str] = set()
        self._lang_map_cache: dict[str, int] | None = None
        # squishy score flow (verifymatch.js:761,796,822). With a layer
        # config, carmen's defaults apply exactly: inherit_score FALSE
        # unless authored, grant_score TRUE unless authored false
        # (index.js:209-210; the types acceptance pins that an
        # unflagged place does NOT inherit, promote-on-identical-name
        # pins that a flagged one does). Configless corpora keep the
        # engine's built-in hierarchy sets for convenience.
        if config is not None and getattr(config, "layers", None):
            self.inherit_score_layers: set[str] = set()
            self.grant_score_layers: set[str] = {
                str(n) for n in config.layers}
        else:
            self.inherit_score_layers = set(INHERIT_SCORE_LAYERS)
            self.grant_score_layers = set(GRANT_SCORE_LAYERS)
        # geocoder_expected_number_order (phrasematch.js:356-369)
        self.layer_expected_number_order: dict[str, str] = {}
        # geocoder_address_order (verifymatch.js:748,933)
        self.layer_address_order: dict[str, str] = {}
        # source-level geocoder_format templates (index.js:174-199)
        self.layer_formats: dict[str, dict] = {}
        # intersection joining tokens (geocoder_intersection_token);
        # the engine keeps "and" as a default so unconfigured corpora
        # still match "X and Y" (the reference generates intersection
        # permutations only for sources that set the token)
        self.intersection_tokens: set[str] = {"and"}
        # geocoder_universal_text layers: text counts as every language
        # (languageMode-universal acceptance; filter-sources passes
        # 'universal' labels)
        self.universal_text_layers: set[str] = set()
        # layer → TYPE name (geocoder_name, index.js:121): worldview
        # splits map several layers onto one type; filters/context
        # operate on type names
        self.layer_type: dict[str, str] = {}
        # layer → name group (geocoder_name; context conflicts)
        self.layer_name: dict[str, str] = {}
        # layer → declared hostable types (geocoder_types, index.js:123)
        self.layer_types_decl: dict[str, list[str]] = {}
        # configured worldviews (index.js:77): first is the query-time
        # default; empty = feature unused (explicit worldview options
        # still filter against geocoder_worldview bindings)
        self.worldviews: list[str] = list(
            getattr(config, "worldviews", None) or []) if config else []
        if config is not None:
            for lname, lc in getattr(config, "layers", {}).items():
                gname = getattr(lc, "geocoder_name", None)
                gtype = getattr(lc, "geocoder_type", None)
                if gname or gtype:
                    # source.type = geocoder_type || geocoder_name || id
                    # (index.js:122); source.name = geocoder_name || id
                    self.layer_type[lname] = str(gtype or gname)
                if gname:
                    self.layer_name[lname] = str(gname)
                gtypes = getattr(lc, "geocoder_types", None)
                if gtypes:
                    self.layer_types_decl[lname] = [str(t) for t in gtypes]
                lwv = getattr(lc, "geocoder_worldview", "all")
                if lwv and lwv != "all" and self.worldviews \
                        and lwv not in self.worldviews:
                    # index.js:139-141: constructor-time validation
                    raise ValueError(
                        "Worldview must be a worldview configured on "
                        f"Geocoder instance (layer {lname!r} has "
                        f"{lwv!r}, configured: {self.worldviews})")
                if getattr(lc, "geocoder_reverse_mode", False):
                    self.reverse_mode_layers.add(lname)
                if getattr(lc, "geocoder_universal_text", False):
                    self.universal_text_layers.add(lname)
                eno = getattr(lc, "geocoder_expected_number_order", None)
                if eno:
                    self.layer_expected_number_order[lname] = str(eno)
                ao = getattr(lc, "geocoder_address_order", "ascending")
                if ao and ao != "ascending":
                    self.layer_address_order[lname] = str(ao)
                lf = getattr(lc, "geocoder_format", None)
                lfs = getattr(lc, "geocoder_formats", None) or {}
                if lf or lfs:
                    fmts = {str(k): str(v) for k, v in lfs.items()}
                    if lf:
                        fmts["default"] = str(lf)
                    self.layer_formats[lname] = fmts
                it = getattr(lc, "geocoder_intersection_token", None)
                if it:
                    self.intersection_tokens.add(str(it))
                if getattr(lc, "geocoder_inherit_score", False):
                    self.inherit_score_layers.add(lname)
                gs = getattr(lc, "geocoder_grant_score", None)
                if gs is True:
                    self.grant_score_layers.add(lname)
                elif gs is False:
                    self.grant_score_layers.discard(lname)
                cats = getattr(lc, "geocoder_categories", None)
                if cats:
                    # index.js:230-246: each category enters the set
                    # tokenized AND token-replaced (the
                    # geocoder_categories acceptance asserts both
                    # 'pizza' and its geocoder_tokens form 'pz'), so a
                    # replaced query phrase still cat-matches
                    cset = set()
                    for c in cats:
                        toks = list(tokenize(str(c)).tokens)
                        cset.add(" ".join(toks))
                        if self.simple is not None:
                            cset.add(" ".join(self.simple.replace(toks)))
                    self.layer_categories[lname] = cset
                sr = getattr(lc, "scoreranges", None)
                if sr:
                    self.layer_scoreranges[lname] = dict(sr)
                wv = getattr(lc, "geocoder_worldview", None)
                if wv:
                    self.layer_worldview[lname] = wv
                if getattr(lc, "geocoder_ignore_order", False):
                    self.ignore_order_layers.add(lname)
                cr = getattr(lc, "geocoder_coalesce_radius", None)
                if cr:
                    self.layer_coalesce_radius[lname] = float(cr)

        # the index build emits the canonical sort order and filters
        # preserve it — actors on the hot path skip the per-actor
        # re-sort (it was the largest fixed cost at high actor counts)
        if presorted:
            pg = phrase_grid.to_pandas().reset_index(drop=True)
        else:
            sort_cols = ["phrase", "idx", "fid", "x", "y", "lang_set"]
            if "lang_set_hi" in phrase_grid.column_names:
                sort_cols.append("lang_set_hi")
            pg = phrase_grid.to_pandas().sort_values(
                sort_cols, kind="mergesort").reset_index(drop=True)
        self.phrases = pg["phrase"].to_numpy(dtype=object)
        self.pg_cols = {
            c: pg[c].to_numpy()
            for c in ("idx", "layer", "zoom", "relev", "score", "x", "y",
                      "fid", "phrase_id", "lang_set", "lang_set_hi", "phash")
            if c in pg.columns
        }
        self.freq = freq
        self.max_score = max_score
        self.min_score = 0.0
        # authored score bounds (tileJSON minscore/maxscore meta):
        # geocoder.minScore/maxScore aggregate each source's authored
        # bound, falling back to the observed build-time bound for
        # unauthored sources (geocode-unit.scoredist authors
        # maxscore=100000 over an observed max of 10000)
        if config is not None and getattr(config, "layers", None):
            lcs = list(config.layers.values())
            a_max = [float(lc.maxscore) for lc in lcs
                     if getattr(lc, "maxscore", None) is not None]
            a_min = [float(lc.minscore) for lc in lcs
                     if getattr(lc, "minscore", None) is not None]
            if a_max:
                if len(a_max) == len(lcs):
                    self.max_score = max(a_max)
                else:
                    self.max_score = max([max_score] + a_max)
            if a_min:
                self.min_score = min([0.0] + a_min)
        self.layer_zooms = layer_zooms
        self.max_zoom = max(layer_zooms.values()) if layer_zooms else 14

        # address-style sources (the reference's geocoder_address flag):
        # config wins when present; otherwise inferred as the layers
        # that index waffled ('#') house-number phrases. Drives the
        # number-only single-token subquery filter (phrasematch.js:225)
        self.address_layers: set[str] = set()
        if config is not None:
            self.address_layers |= {
                n for n, lc in getattr(config, "layers", {}).items()
                if getattr(lc, "geocoder_address", False)}
        if len(self.phrases) and "layer" in self.pg_cols:
            has_waffle = np.fromiter(
                ("#" in p for p in self.phrases), dtype=bool,
                count=len(self.phrases))
            if has_waffle.any():
                self.address_layers |= {
                    str(l) for l in np.unique(
                        np.asarray(self.pg_cols["layer"])[has_waffle])}

        if features is None:
            # features-free mode (the sharded PhrasematchStage): only the
            # phrase/grid side is resident — no feature store, no tmpid
            # index, no cell index. idx_rank (carmen's dense ndx over
            # configured indexes) can't be derived from a phrase SHARD
            # (a shard may miss whole layers), so it must be passed in —
            # the streaming build persists it in index_meta.json.
            self._f = None
            self.n_features = 0
            self.has_feature_stacks = False
            self.has_feature_types = False
            self.multitype_active = bool(self.layer_type)
            self.doc_index = {}
            self.by_fid = {}
            self._tmpids_sorted = np.empty(0, dtype=np.int64)
            self._tmpid_rows = np.empty(0, dtype=np.int64)
            self.layers = []
            if idx_rank is not None:
                self.idx_rank = {int(k): int(v) for k, v in idx_rank.items()}
            else:
                uniq = np.unique(self.pg_cols["idx"]) if "idx" in self.pg_cols else []
                self.idx_rank = {int(ix): r for r, ix in enumerate(uniq)}
            self.layer_rows = {}
            self.layer_bbox = {}
            self.layer_maxscore = {
                lname: float(lc.maxscore)
                for lname, lc in (getattr(config, "layers", {}) or {}).items()
                if getattr(lc, "maxscore", None) is not None} if config else {}
            # features-free mode: whole-layer bounds arrive from index
            # metadata (the proxMatch gate needs them at phrasematch time)
            self.layer_bounds = {
                str(l): tuple(float(v) for v in b)
                for l, b in (layer_bounds or {}).items()}
            self._geom_cache = {}
            self._context_cache = {}
            self.cell_zoom = 10
            self.cell_index = {}
            self.cell_global = []
            if idx_layer is None and "idx" in self.pg_cols and "layer" in self.pg_cols:
                idxs = np.asarray(self.pg_cols["idx"])
                _, first = np.unique(idxs, return_index=True)
                idx_layer = {int(idxs[i]): str(self.pg_cols["layer"][i])
                             for i in first}
            self._compute_non_overlap(idx_layer or {})
            return

        f = features.to_pandas().reset_index(drop=True)
        self._f = {c: f[c].to_numpy() for c in f.columns}
        self.n_features = len(f)
        # per-feature carmen:geocoder_stack / carmen:types presence —
        # gates the reference stack/type semantics; absent or all-empty
        # columns keep the legacy country-membership stacks filter
        stk = self._f.get("stack")
        self.has_feature_stacks = stk is not None and any(bool(s) for s in stk)
        tjs = self._f.get("types_json")
        self.has_feature_types = tjs is not None and any(bool(t) for t in tjs)
        # gate for the type-memo walk on the hot path: plain corpora
        # (no multityping, no name aliasing) keep the direct doc_id path
        self.multitype_active = self.has_feature_types or bool(self.layer_type)
        self.doc_index = {d: i for i, d in enumerate(self._f["doc_id"])}
        self.by_fid = {
            (int(ix), int(fid)): i
            for i, (ix, fid) in enumerate(zip(self._f["idx"], self._f["fid"]))
        }
        # vectorized tmpid → row lookup (sorted array + searchsorted)
        tmpids = self._f["idx"].astype(np.int64) * TMPID_SHIFT + self._f["fid"].astype(np.int64)
        order = np.argsort(tmpids, kind="mergesort")
        self._tmpids_sorted = tmpids[order]
        self._tmpid_rows = order
        if idx_rank is not None:
            # sharded feature store: local layers are a subset — ranks
            # come from the build-time metadata so they stay globally
            # consistent across shards
            self.idx_rank = {int(k): int(v) for k, v in idx_rank.items()}
            order = sorted(set(zip(f["layer"], f["idx"])), key=lambda t: t[1])
            self.layers = [l for l, _ in order]
        else:
            order = sorted(set(zip(f["layer"], f["idx"])), key=lambda t: t[1])
            self.layers = [l for l, _ in order]
            # dense rank of present layers (carmen's ndx): hierarchy-gap
            # penalties are measured over configured indexes, not the
            # global layer numbering
            self.idx_rank = {int(ix): r for r, (_, ix) in enumerate(order)}
        self.layer_rows = {l: np.flatnonzero(self._f["layer"] == l) for l in self.layers}
        self.layer_bbox = {
            l: (
                self._f["bbox_w"][rows], self._f["bbox_s"][rows],
                self._f["bbox_e"][rows], self._f["bbox_n"][rows],
            )
            for l, rows in self.layer_rows.items()
        }
        # whole-layer bounds (the reference's per-source `bounds`,
        # api-mem.js source option): the proxMatch gate for bare-number
        # queries checks proximity against these (phrasematch.js:47)
        if layer_bounds is not None:
            self.layer_bounds = {
                str(l): tuple(float(v) for v in b)
                for l, b in layer_bounds.items()}
        else:
            # derived bounds are TILE-granular like the reference's
            # (index.js:268 info.bounds = extent of the indexed tiles,
            # not of raw feature geometries): snap the feature extent
            # outward to the layer zoom's tile grid — a query point one
            # street over from the last indexed feature is still inside
            # the source's bounds for proxMatch / nearest gating
            from ..geom.tile import lonlat_to_tile, tile_to_lonlat

            self.layer_bounds = {}
            for l, (w, s, e, n) in self.layer_bbox.items():
                if not len(w):
                    continue
                z = int((layer_zooms or {}).get(l, 6))
                nz = 1 << z
                x0, y0 = lonlat_to_tile(float(np.min(w)), float(np.max(n)), z)
                x1, y1 = lonlat_to_tile(float(np.max(e)), float(np.min(s)), z)
                bw, bn = tile_to_lonlat(int(x0), int(y0), z)
                be, bs = tile_to_lonlat(min(int(x1) + 1, nz),
                                        min(int(y1) + 1, nz), z)
                self.layer_bounds[l] = (float(bw), float(bs),
                                        float(be), float(bn))
        # per-SOURCE score bound (tileJSON maxscore per index): subtype
        # score ranges scale by the OWNING source's maxscore
        # (context.js:109-113), not the geocoder-wide bound — two
        # sources sharing geocoder_name 'poi' can have different
        # maxscores (geocode-unit.types: cn maxscore 500, au 100)
        self.layer_maxscore: dict[str, float] = {
            l: (float(np.max(self._f["score"][rows])) if len(rows) else 0.0)
            for l, rows in self.layer_rows.items()}
        if config is not None:
            for lname, lc in getattr(config, "layers", {}).items():
                if getattr(lc, "maxscore", None) is not None:
                    self.layer_maxscore[lname] = float(lc.maxscore)
        self._geom_cache: dict[int, dict] = {}
        self._context_cache: dict[int, list] = {}
        self._compute_non_overlap({int(ix): str(l) for l, ix in order})

        # cell index over feature bboxes (ST3/S7 wired): reverse/kNN
        # candidate generation probes the query point's cell ring
        # instead of scanning whole layers. Features whose bbox covers
        # too many cells (countries, long admin polygons) go to a
        # small always-scanned global bucket.
        self.cell_zoom = 10
        self.cell_index: dict[tuple[int, int], list[int]] = {}
        self.cell_global: list[int] = []
        if build_cell_index and self.n_features:
            nz = 2.0 ** self.cell_zoom
            w_, s_, e_, n_ = (self._f["bbox_w"], self._f["bbox_s"],
                             self._f["bbox_e"], self._f["bbox_n"])
            x0, y0 = lonlat_to_tile(w_, n_, self.cell_zoom)  # NW corner
            x1, y1 = lonlat_to_tile(e_, s_, self.cell_zoom)  # SE corner
            x0 = np.clip(np.asarray(x0, dtype=np.int64), 0, int(nz) - 1)
            x1 = np.clip(np.asarray(x1, dtype=np.int64), 0, int(nz) - 1)
            y0 = np.clip(np.asarray(y0, dtype=np.int64), 0, int(nz) - 1)
            y1 = np.clip(np.asarray(y1, dtype=np.int64), 0, int(nz) - 1)
            ncells = (x1 - x0 + 1) * (y1 - y0 + 1)
            for i in range(self.n_features):
                if ncells[i] > 64:
                    self.cell_global.append(i)
                    continue
                for cx in range(int(x0[i]), int(x1[i]) + 1):
                    for cy in range(int(y0[i]), int(y1[i]) + 1):
                        self.cell_index.setdefault((cx, cy), []).append(i)

    def _compute_non_overlap(self, idx_layer: dict[int, str]) -> None:
        # kept for consumers that map cover idxs back to layer names
        # (the staged hydrate's address-order direction re-derivation)
        self.idx_layer: dict[int, str] = dict(idx_layer)
        """Per-index geocoder_stack bitsets + the non_overlapping_indexes
        mask (index.js:325-342): two indexes whose geocoder_stacks are
        both non-empty and disjoint can never co-occur in one spatial
        stack, so coalesce prunes those combinations before enumeration.
        Stack names map to a global bit registry; names beyond 63 share
        the overflow bit (conservative — may fail to prune at huge stack
        vocabularies, never over-prunes)."""
        from .coalesce import non_overlap_from_bits

        self.stack_bits: dict[int, int] = {}
        self.non_overlap: dict[int, frozenset[int]] = {}
        layers_cfg = getattr(self.config, "layers", None) or {}
        names = sorted({s for lc in layers_cfg.values()
                        for s in (getattr(lc, "geocoder_stack", None) or [])})
        if not names:
            return
        bit = {n: min(i, 63) for i, n in enumerate(names)}
        for ix, lname in idx_layer.items():
            lc = layers_cfg.get(lname)
            b = 0
            for s in (getattr(lc, "geocoder_stack", None) or []) if lc else []:
                b |= 1 << bit[s]
            self.stack_bits[int(ix)] = b
        self.non_overlap = non_overlap_from_bits(self.stack_bits)

    def cell_candidates(self, lon: float, lat: float, ring: int = 1) -> np.ndarray:
        """Feature rows whose bbox-cover cells fall within `ring` cells
        of the query point, plus the global bucket. A superset of every
        feature within ring−1 cell-widths of the point (cells at
        cell_zoom are ≥3 km wide even at the ±85° clamp, so ring=1
        covers the reference's 1000 m reverse radius)."""
        cx, cy = lonlat_to_tile(lon, lat, self.cell_zoom)
        cx, cy = int(cx), int(cy)
        rows: list[int] = list(self.cell_global)
        for dx in range(-ring, ring + 1):
            for dy in range(-ring, ring + 1):
                rows.extend(self.cell_index.get((cx + dx, cy + dy), ()))
        return np.unique(np.asarray(rows, dtype=np.int64))

    def feature_at(self, row: int) -> Feature:
        return Feature(self._f, row)

    def _lang_map(self) -> dict[str, int]:
        """Reconstruct the build-time lang_map (build_lang_map: sorted
        distinct authored codes → sequential slots) from the feature
        table. Lazy + cached — only language-flagged requests need it,
        and the flagship/batch pipelines are language-less."""
        if self._lang_map_cache is None:
            langs: set[str] = set()
            if self._f is not None:
                for lj in self._f["langs_json"]:
                    if lj:
                        langs.update(json.loads(lj).keys())
            self._lang_map_cache = {l: i for i, l in enumerate(sorted(langs))}
        return self._lang_map_cache

    def lang_want_masks(self, language: str | None) -> tuple[int, int]:
        """carmen-core's wanted-language bit (phrasematch.js:298-310):
        the single bit of the requested language's closest indexed
        label (or 'default' without a flag, or the unmatched slot), plus
        the universal bit — grids whose lang set misses both take the
        ×LANGUAGE_PENALTY relev cut. → (lo64, hi64) masks."""
        from ..index.build import LANG_BITS, UNMATCHED_LANG_BIT, lang_bit
        from ..text.closest_lang import closest_lang_label

        if not language:
            b = LANG_BITS["default"]
        else:
            code = str(language).replace("-", "_")
            lm = self._lang_map()
            if code in LANG_BITS:
                b = LANG_BITS[code]
            elif code in lm:
                b = lang_bit(code, lm)
            else:
                label = closest_lang_label(code, list(lm))
                b = lang_bit(label, lm) if label else UNMATCHED_LANG_BIT
        full = (1 << b) | (1 << LANG_BITS["all"])
        return full & _LANG_LO_MASK64, full >> 64

    def layer_decl_types(self, layer: str) -> list[str]:
        """source.types (index.js:123): geocoder_types, defaulting to
        the single geocoder_name/layer type."""
        decl = self.layer_types_decl.get(layer)
        if decl:
            return decl
        return [self.layer_type.get(layer, layer)]

    def geometry_at(self, row: int) -> dict:
        g = self._geom_cache.get(row)
        if g is None:
            g = json.loads(self._f["geometry_json"][row])
            self._geom_cache[row] = g
        return g

    def lookup(self, joined: str, prefix: bool,
               word_boundary: bool = False) -> tuple[int, int]:
        """Sorted-range lookup: [lo, hi) of rows matching phrase (or
        prefix). word_boundary narrows a prefix probe to exact-phrase ∪
        whole-word continuations (the wordBoundaryPrefix ENDING_TYPE,
        phrasematch.js:84-93): 'dt' matches 'dt' and 'dt taco' but not
        'dtown'. The union is one contiguous range — ' ' sorts below
        every other token character, so [joined, joined + " ￿"] covers
        exactly the exact match plus boundary continuations."""
        lo = int(np.searchsorted(self.phrases, joined, side="left"))
        if prefix and word_boundary:
            hi = int(np.searchsorted(self.phrases, joined + " ￿", side="right"))
        elif prefix:
            hi = int(np.searchsorted(self.phrases, joined + "￿", side="right"))
        else:
            hi = int(np.searchsorted(self.phrases, joined, side="right"))
        return lo, hi

    def _ensure_phrase_deletes(self) -> None:
        """Lazy delete-1 map over whole indexed PHRASES — the
        fuzzyMatchWindows role (phrasematch.js:106): any query window
        within one edit of an indexed phrase matches, even when every
        token is itself a known word ('mane street' → 'main street').
        Built once per actor on first fuzzy query; per-shard tables
        only index their own phrases, mirroring the sharded FST."""
        from .. import constants as _c

        if self._phrase_deletes is not None:
            return
        deletes: dict[str, list[str]] = {}
        vocab: set[str] = set()
        prev = None
        for p in self.phrases:
            if p == prev:
                continue
            prev = p
            vocab.add(p)
            if len(p) < _c.MIN_CORRECTION_LENGTH:
                continue
            for i in range(len(p)):
                deletes.setdefault(p[:i] + p[i + 1:], []).append(p)
        self._phrase_deletes = deletes
        self._phrase_vocab = vocab
        # word-boundary PREFIXES of indexed phrases (the fuzzy-store
        # wordBoundaryPrefix ending, phrasematch.js:88 / carmen-core
        # ENDING_TYPE): "main street" is a wb-prefix of "main street
        # apartments", so a typo'd final token can still autocomplete
        pdeletes: dict[str, list[str]] = {}
        pvocab: set[str] = set()
        for p in vocab:
            pos = 0
            while True:
                cut = p.find(" ", pos)
                pref = p if cut < 0 else p[:cut]
                if pref not in pvocab and len(pref) >= _c.MIN_CORRECTION_LENGTH:
                    pvocab.add(pref)
                    for i in range(len(pref)):
                        pdeletes.setdefault(pref[:i] + pref[i + 1:], []).append(pref)
                if cut < 0:
                    break
                pos = cut + 1
        self._prefix_deletes = pdeletes
        self._prefix_vocab = pvocab

    def fuzzy_phrase_lookup(self, joined: str, max_candidates: int = 6) -> list[tuple[str, int]]:
        """Indexed phrases within DL≤1 of `joined` (exact excluded).
        Results are cached per actor — fuzzy candidates depend only on
        the window string, and real workloads repeat hot windows."""
        from .. import constants as _c

        if len(joined) < _c.MIN_CORRECTION_LENGTH:
            return []
        cached = self._fuzzy_cache.get(joined)
        if cached is not None:
            return cached
        self._ensure_phrase_deletes()
        cands: set[str] = set()
        cands.update(self._phrase_deletes.get(joined, ()))
        for i in range(len(joined)):
            d = joined[:i] + joined[i + 1:]
            if d in self._phrase_vocab:
                cands.add(d)
            cands.update(self._phrase_deletes.get(d, ()))
        cands.discard(joined)
        out = [(p, dl_distance(joined, p, 1)) for p in cands]
        dw = _digit_words(joined)
        # word-by-word fuzzy (the fuzzy-phrase model): a candidate must
        # have the SAME word count as the window — carmen never corrects
        # across a space ('mainst' ↛ 'main st', fuzzy.test.js:287-292)
        nw = joined.count(" ")
        out = [(p, d) for p, d in out
               if d <= 1 and _digit_words(p) == dw and p.count(" ") == nw]
        out.sort(key=lambda t: (t[1], -self.freq.get(t[0], 0), t[0]))
        out = out[:max_candidates]
        if len(self._fuzzy_cache) >= _FUZZY_CACHE_CAP:
            self._fuzzy_cache.clear()
        self._fuzzy_cache[joined] = out
        return out

    def fuzzy_prefix_lookup(self, joined: str, max_candidates: int = 6) -> list[tuple[str, int]]:
        """Fuzzy + autocomplete combined endings (phrasematch.js:106-131
        ending types; docs/index-structure.md fuzzy store): corrected
        PREFIX strings within DL≤1 of the query window, each to be
        range-probed with lookup(cand, prefix=True).

        Two candidate sources approximate the FST's prefix endings:
        - the delete-1 map over word-boundary phrase prefixes
          (wordBoundaryPrefix: 'main stret' → 'main street' →
          autocompletes 'main street apartments');
        - raw delete-1 variants of the window probed as prefixes
          (anyPrefix insertion typos inside a partial last word:
          'main strre' → variant 'main stre' prefix-matches).
        Candidates extending the window itself are dropped — the exact
        prefix probe already covers everything they would match."""
        from .. import constants as _c

        if len(joined) < _c.MIN_CORRECTION_LENGTH:
            return []
        cached = self._fuzzy_prefix_cache.get(joined)
        if cached is not None:
            return cached
        self._ensure_phrase_deletes()
        cands: set[str] = set()
        cands.update(self._prefix_deletes.get(joined, ()))
        variants: list[str] = []
        for i in range(len(joined)):
            v = joined[:i] + joined[i + 1:]
            variants.append(v)
            if v in self._prefix_vocab:
                cands.add(v)
            cands.update(self._prefix_deletes.get(v, ()))
        out = []
        dw = _digit_words(joined)
        nw = joined.count(" ")
        for p in cands:
            if p == joined or p.startswith(joined):
                continue
            d = dl_distance(joined, p, 1)
            # same word count as the window: the fuzzy prefix ending
            # only extends the LAST word, never invents a space
            if d <= 1 and _digit_words(p) == dw and p.count(" ") == nw:
                out.append((p, d))
        # insertion-typo variants: the corrected prefix IS the variant.
        # One left-probe + startswith beats the full [lo, hi) range scan
        # — existence is all that matters here
        seen_p = {p for p, _ in out}
        n_ph = len(self.phrases)
        for v in variants:
            if (len(v) >= _c.MIN_CORRECTION_LENGTH and v not in seen_p
                    and v != joined and _digit_words(v) == dw
                    and v.count(" ") == nw):
                lo = int(np.searchsorted(self.phrases, v, side="left"))
                if lo < n_ph and str(self.phrases[lo]).startswith(v):
                    out.append((v, 1))
                    seen_p.add(v)
        out.sort(key=lambda t: (t[1], -self.freq.get(t[0], 0), t[0]))
        out = out[:max_candidates]
        if len(self._fuzzy_prefix_cache) >= _FUZZY_CACHE_CAP:
            self._fuzzy_prefix_cache.clear()
        self._fuzzy_prefix_cache[joined] = out
        return out

    def feature_bbox_am(self, frow: int, feature) -> list | None:
        """Result-output bbox (geom/ops.geom_bbox_am): AM-aware extent,
        None for point features — cached per actor by feature row."""
        if frow in self._bbox_cache:
            return self._bbox_cache[frow]
        out = None
        gj = getattr(feature, "geometry_json", "") or ""
        if gj:
            try:
                geom = json.loads(gj)
            except (TypeError, ValueError):
                geom = None
            if geom and geom.get("type") != "Point":
                from ..geom.ops import geom_bbox_am

                out = [float(v) for v in geom_bbox_am(geom)]
        if len(self._bbox_cache) >= 1 << 17:
            self._bbox_cache.clear()
        self._bbox_cache[frow] = out
        return out

    def row_by_tmpid(self, tmpid: int) -> int | None:
        idx, fid = divmod(tmpid, TMPID_SHIFT)
        return self.by_fid.get((idx, fid))

    def feature_by_tmpid(self, tmpid: int):
        row = self.row_by_tmpid(tmpid)
        return self.feature_at(row) if row is not None else None


_FUZZY_CACHE_CAP = 1 << 17  # ~131k windows per actor, cleared wholesale


def _digit_words(s: str) -> list[str]:
    """The words of a phrase that carry digits (or '#' masks). The
    reference's fuzzy store never edits number-bearing words — they
    match exactly or not at all (mapbox/fuzzy-phrase word fuzzing; the
    duplicate-address acceptance: '101 main st' must NOT fuzzy-correct
    to a feature NAMED '103 main st'). A fuzzy candidate whose
    digit-word sequence differs from the query window's is rejected."""
    return [w for w in s.split(" ") if any(c.isdigit() or c == "#" for c in w)]


def dl_distance(a: str, b: str, cap: int = 2) -> int:
    """Damerau-Levenshtein (restricted) with early exit above cap."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > cap:
        return cap + 1
    prev2: list[int] = []
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                cur[j] = min(cur[j], prev2[j - 2] + 1)
        if min(cur) > cap:
            return cap + 1
        prev2, prev = prev, cur
    return prev[lb]


def fuzzy_candidates(index: IndexData, token: str, max_candidates: int = 4) -> list[str]:
    """DL≤1 corrections of an unknown token via the delete-1 map."""
    from .. import constants as _c

    if len(token) < _c.MIN_CORRECTION_LENGTH or token in index.vocab:
        return []
    cands: set[str] = set()
    if token in index.deletes:
        cands.update(index.deletes[token])  # insertion fixes
    for i in range(len(token)):
        d = token[:i] + token[i + 1:]
        if d in index.vocab:
            cands.add(d)                    # deletion fixes
        for w in index.deletes.get(d, ()):
            cands.add(w)                    # substitution/transposition
    dw = _digit_words(token)
    out = [w for w in cands
           if dl_distance(token, w, 1) <= 1 and _digit_words(w) == dw]
    out.sort(key=lambda w: (dl_distance(token, w, 1), -index.freq.get(w, 0), w))
    return out[:max_candidates]


def query_hypotheses(index: IndexData, tokens: list[str], fuzzy: bool = True) -> list[tuple[list[str], float]]:
    """Token-list hypotheses: base, whitespace-corrected (M17), and
    single-token fuzzy corrections with carmen's R1 penalty
    max((len - d/2)/len, .75) (phrasematch.js:321-383)."""
    from .. import constants as _c
    from ..config import whitespace_hypothesis

    hyps: list[tuple[list[str], float]] = [(tokens, 1.0)]
    ws = whitespace_hypothesis(tokens)
    if ws is not None:
        hyps.append((ws, 1.0))
    if fuzzy:
        n_corr = 0
        for i, tok in enumerate(tokens):
            if n_corr >= _c.MAX_CORRECTION_LENGTH:
                break
            for cand in fuzzy_candidates(index, tok):
                fixed = list(tokens)
                fixed[i] = cand
                d = dl_distance(tok, cand, 1)
                penalty = max((len(tok) - d / 2) / len(tok), 0.75)
                hyps.append((fixed, penalty))
                n_corr += 1
                if n_corr >= _c.MAX_CORRECTION_LENGTH:
                    break
    return hyps


def _lang_penalties(index, c, rel, lang_want):
    """Per-row relev multiplier: ×LANGUAGE_PENALTY when a grid's
    128-bit lang set misses the wanted bit AND the universal bit
    (carmen-core's cross-language penalty). lang_want=None → no
    language opinion (legacy callers, e.g. the intersections emit).
    geocoder_universal_text layers are exempt at query time too — the
    flag is source META that may be configured on an index built
    without it (filter-sources passes 'universal' labels)."""
    if lang_want is None:
        return np.ones(len(rel))
    if index is not None and             str(c["layer"][rel[0]]) in index.universal_text_layers:
        return np.ones(len(rel))
    lo, hi = lang_want
    ls = c["lang_set"][rel].astype(np.uint64)
    lhc = c.get("lang_set_hi")
    lh = (lhc[rel].astype(np.uint64) if lhc is not None
          else np.zeros(len(rel), dtype=np.uint64))
    ok = ((ls & np.uint64(lo)) | (lh & np.uint64(hi))) != 0
    return np.where(ok, 1.0, constants.LANGUAGE_PENALTY)


class PhrasematchCollector:
    """Default collector: builds Phrasematch + Grid objects (the fused
    path's stacking inputs). The staged PhrasematchStage swaps in a
    packed-row collector that writes numpy slices straight into the
    exchange schema — building Grid objects just to re-encode them was
    ~40% of staged phrasematch time."""

    def __init__(self):
        self.out: list[Phrasematch] = []

    def emit(self, index: "IndexData", idx: int, rel: np.ndarray, mask: int,
             weight: float, joined: str, use_prefix: bool,
             address: str | None, edit_distance: int,
             lang_want: tuple[int, int] | None = None) -> None:
        c = index.pg_cols
        phashes = c.get("phash")
        # category subqueries are language-universal — no cross-language
        # penalty (language-universal-categories acceptance)
        _layer0 = str(c["layer"][rel[0]])
        if joined in index.layer_categories.get(_layer0, ()):
            pen = np.ones(len(rel))
        else:
            pen = _lang_penalties(index, c, rel, lang_want)
        grids = [
            Grid(
                x=int(c["x"][i]), y=int(c["y"][i]),
                relev=float(c["relev"][i]) * pen[k],
                score=float(c["score"][i]),
                fid=int(c["fid"][i]),
                tmpid=int(idx) * TMPID_SHIFT + int(c["fid"][i]),
                phash=int(phashes[i]) if phashes is not None else 0,
            )
            for k, i in enumerate(rel)
        ]
        layer = str(c["layer"][rel[0]])
        self.out.append(Phrasematch(
            idx=int(idx), layer=layer,
            zoom=int(c["zoom"][rel[0]]),
            mask=mask, weight=weight, subquery=joined,
            phrase_id=int(c["phrase_id"][rel[0]]),
            prefix=use_prefix, grids=grids,
            address=address,
            edit_distance=edit_distance,
            cat_match=joined in index.layer_categories.get(layer, ()),
        ))


def _emit_phrase_rows(index: IndexData, lo: int, hi: int, mask: int,
                      weight: float, joined: str, use_prefix: bool,
                      address: str | None, collector,
                      edit_distance: int = 0,
                      number_order: str | None = None,
                      lang_want: tuple[int, int] | None = None) -> None:
    """Group rows [lo, hi) by source index and hand each group to the
    collector. number_order ('first'/'last'/None) is the subquery's
    house-number position — sources with a geocoder_expected_number_order
    opinion penalize the other order by 0.99 (phrasematch.js:356-369)."""
    idxs = index.pg_cols["idx"][lo:hi]
    eno = index.layer_expected_number_order if number_order else None
    for idx in np.unique(idxs):
        rel = np.flatnonzero(idxs == idx) + lo
        w = weight
        if eno:
            expected = eno.get(str(index.pg_cols["layer"][rel[0]]))
            if expected and expected != number_order:
                w = weight * 0.99
        collector.emit(index, int(idx), rel, mask, w, joined,
                       use_prefix, address, edit_distance,
                       lang_want=lang_want)


def phrasematch_query(index: IndexData, tokens: list[str], autocomplete: bool = True,
                      languages: list[str] | None = None,
                      weight_multiplier: float = 1.0,
                      seen: set | None = None,
                      address: str | None = None,
                      fuzzy_max_distance: int = 0,
                      word_boundary: bool = False,
                      collector=None,
                      number_order: str | None = None,
                      mask_map: list[int] | None = None,
                      weight_n: int | None = None,
                      initial_distance: int = 0) -> list[Phrasematch]:
    """All subquery-window matches against the phrase table (J1).

    With fuzzy_max_distance=1, every window also fuzzy-matches whole
    indexed phrases within one edit (the fuzzyMatchWindows role,
    phrasematch.js:106-131): a typo inside a multi-word phrase that
    still tokenizes to known words ('mane street') is corrected, with
    the R1 penalty max((len − d/2)/len, .75) (phrasematch.js:321-345)
    and the short-word correction rejections.

    mask_map / weight_n / initial_distance serve the whitespace-corrected
    hypothesis (phrasematch.js:61-77): each token's emitted mask bit maps
    back to its ORIGINAL query position (gapExpansionMasks), weights are
    over the original token count, and every match carries the already-
    spent edit budget (initialDistance=1 → R1 penalty, no further fuzz)."""
    from .. import constants as _c

    n = len(tokens)
    if n == 0:
        return []
    wn = weight_n if weight_n is not None else n
    # the single wanted language bit for the grid-level penalty
    # (phrasematch.js:298-310; 'default' without a flag)
    lang_want = index.lang_want_masks(languages[0] if languages else None)
    if collector is None:
        collector = PhrasematchCollector()
    out = collector
    if seen is None:
        seen = set()
    for mask in continuous_masks(n):
        positions = [j for j in range(n) if mask & (1 << j)]
        # continuous masks are contiguous runs
        sub = [tokens[j] for j in positions]
        joined = " ".join(sub)
        if mask_map is not None:
            omask = 0
            for j in positions:
                omask |= mask_map[j]
        else:
            omask = mask
        ender = bool(mask & (1 << (n - 1)))
        for use_prefix in ([False, True] if (autocomplete and ender) else [False]):
            if (joined, use_prefix) in seen:
                continue
            seen.add((joined, use_prefix))
            lo, hi = index.lookup(joined, use_prefix, word_boundary)
            if hi > lo:
                weight = (bin(omask).count("1") / wn) * weight_multiplier
                if initial_distance:
                    weight *= max(
                        (len(joined) - initial_distance / 2) / len(joined),
                        0.75)
                _emit_phrase_rows(index, lo, hi, omask, weight, joined,
                                  use_prefix, address, out,
                                  edit_distance=initial_distance,
                                  number_order=number_order,
                                  lang_want=lang_want)
        if address is not None and len(sub) > 1 and "#" in sub[-1]:
            # number-at-back windows match the '#'-PREFIXED indexed
            # phrase (housenum waffles always prepend, termops.js:
            # 509-515; carmen-core rearranges address subqueries —
            # phrasematch.js:177-179 "weird rearrangements"; the
            # jp-passthrough acceptance's trailing house number)
            jr = " ".join([sub[-1]] + sub[:-1])
            if (jr, False) not in seen:
                seen.add((jr, False))
                lo, hi = index.lookup(jr, False)
                if hi > lo:
                    weight = (bin(omask).count("1") / wn) * weight_multiplier
                    _emit_phrase_rows(index, lo, hi, omask, weight, jr,
                                      False, address, out,
                                      edit_distance=initial_distance,
                                      number_order=number_order,
                                      lang_want=lang_want)
        if fuzzy_max_distance > 0:
            for cand, d in index.fuzzy_phrase_lookup(joined):
                if (cand, "fz") in seen:
                    continue
                seen.add((cand, "fz"))
                cand_words = cand.split(" ")
                # single-word correction rejections (phrasematch.js:117-131)
                if len(cand_words) == 1:
                    if len(sub) == 1 and (
                        len(sub[0]) < _c.MIN_CORRECTION_LENGTH
                        or (len(cand_words[0]) < _c.MIN_CORRECTION_LENGTH
                            and abs(len(cand_words[0]) - len(sub[0])) <= 1)
                    ):
                        continue
                lo, hi = index.lookup(cand, False)
                if hi <= lo:
                    continue
                penalty = max((len(joined) - d / 2) / len(joined), 0.75)
                weight = (bin(omask).count("1") / wn) * weight_multiplier * penalty
                _emit_phrase_rows(index, lo, hi, omask, weight, cand,
                                  False, address, out, edit_distance=d,
                                  number_order=number_order,
                                  lang_want=lang_want)
            if autocomplete and ender:
                # fuzzy + prefix combined endings (phrasematch.js:106-131):
                # a misspelled FINAL token still autocompletes
                for cand, d in index.fuzzy_prefix_lookup(joined):
                    if (cand, "fzp") in seen:
                        continue
                    seen.add((cand, "fzp"))
                    cand_words = cand.split(" ")
                    if len(cand_words) == 1 and len(sub) == 1 and (
                        len(sub[0]) < _c.MIN_CORRECTION_LENGTH
                        or (len(cand_words[0]) < _c.MIN_CORRECTION_LENGTH
                            and abs(len(cand_words[0]) - len(sub[0])) <= 1)
                    ):
                        continue
                    # a fuzzy-CORRECTED final term only completes at
                    # word boundaries, like a token-replaced one
                    # (phrasematch.js:84-93 endingType; 'forp'→'fort'
                    # must not complete into 'fortenberry' —
                    # fuzzy-with-tokens-and-autocomplete)
                    lo, hi = index.lookup(cand, True, True)
                    if hi <= lo:
                        continue
                    penalty = max((len(joined) - d / 2) / len(joined), 0.75)
                    weight = (bin(omask).count("1") / wn) * weight_multiplier * penalty
                    _emit_phrase_rows(index, lo, hi, omask, weight, cand,
                                      True, address, out, edit_distance=d,
                                      number_order=number_order,
                                      lang_want=lang_want)
    return getattr(collector, "out", [])


def number_order_of(var_tokens: list, addr: dict) -> str | None:
    """numberOrder of a numTokenize variant (termops.js numTokenize):
    'first'/'last' when the house number sits at exactly one end —
    single-token queries are both ends and get None (no expected-order
    opinion can penalize them, phrasematch.js:362-365)."""
    if len(var_tokens) < 2:
        return None
    pos = addr["position"]
    if pos == 0:
        return "first"
    if pos == len(var_tokens) - 1:
        return "last"
    return None


def intersection_phrasematches(index: IndexData, tokens: list[str],
                               collector, seen: set | None = None) -> None:
    """Intersection permutations (termops.js:872-902): "f st <tok> 9th
    st" → "+intersection f st , 9th st" exact-phrase lookup, full-query
    mask. The joining token is per-source configurable
    (geocoder_intersection_token, phrasematch.js:204-206); the engine
    also keeps the default "and". Shared by the fused path and the
    staged PhrasematchStage so both emit identical rows."""
    n = len(tokens)
    if n < 3:
        return
    for i in range(1, n - 1):
        if tokens[i] not in index.intersection_tokens:
            continue
        joined = " ".join(["+intersection"] + tokens[:i] + [","] + tokens[i + 1:])
        if seen is not None:
            if (joined, False) in seen:
                continue
            seen.add((joined, False))
        lo_, hi_ = index.lookup(joined, False)
        if hi_ > lo_:
            _emit_phrase_rows(index, lo_, hi_, (1 << n) - 1, 1.0, joined,
                              False, None, collector)


def filter_misspelled_short(pms: list) -> list:
    """phrasematch.js:385-402: when one mask collects more than 6 short
    misspelled matches AND has a correctly spelled alternative, the
    short misspelled ones are noise — drop them."""
    mis: dict[int, int] = {}
    ok: dict[int, bool] = {}
    for p in pms:
        short = len(p.subquery.split(" ")) == 1 or len(p.subquery) <= 6
        if p.edit_distance > 0 and short:
            mis[p.mask] = mis.get(p.mask, 0) + 1
        elif p.edit_distance == 0:
            ok[p.mask] = True
    if not mis:
        return pms
    return [
        p for p in pms
        if not (
            mis.get(p.mask, 0) > 6 and ok.get(p.mask)
            and (len(p.subquery.split(" ")) == 1 or len(p.subquery) <= 6)
            and p.edit_distance > 0
        )
    ]


def _context_for(index: IndexData, row: int, max_idx: int,
                 worldview: str | None = None) -> list:
    """Parent features containing the feature's center (J4/J6 light).
    Cached per feature row — contexts are heavily reused across queries.

    When the index was built with the context precompute stage
    (index/context.py), the chain is a stored column and this is a
    plain lookup — no bbox/PIP work at query time.

    With an active worldview, only byworldview layers participate
    (context.js:37-39) and the chain is deduped one-feature-per-TYPE
    (stackFeatures memo, context.js:208-215 — worldview-split layers
    share a geocoder_name); the precomputed chain is bypassed since it
    was built worldview-blind."""
    key = row if worldview is None else (row, worldview)
    cached = index._context_cache.get(key)
    if cached is not None:
        return cached
    f = index._f
    pre = f.get("context_ids")
    if pre is not None and worldview is None:
        out = [
            index.feature_at(index.doc_index[d])
            for d in pre[row]
            if d in index.doc_index
        ]
        index._context_cache[key] = out
        return out
    lon, lat = float(f["center_lon"][row]), float(f["center_lat"][row])
    ctx: list[int] = []
    for layer in index.layers:
        if not _layer_in_worldview(index, layer, worldview):
            continue
        rows = index.layer_rows[layer]
        if len(rows) == 0 or int(f["idx"][rows[0]]) >= max_idx:
            continue
        w, s, e, n = index.layer_bbox[layer]
        cand = rows[(w <= lon) & (e >= lon) & (s <= lat) & (n >= lat)]
        best, best_score = None, -np.inf
        for r in cand:
            geom = index.geometry_at(int(r))
            if geom["type"] in ("Polygon", "MultiPolygon", "GeometryCollection"):
                if not point_in_geom(lon, lat, geom):
                    continue
            sc = float(f["score"][r])
            if best is None or sc > best_score:
                best, best_score = int(r), sc
        if best is not None:
            ctx.append(best)
    ctx.sort(key=lambda r: -int(f["idx"][r]))  # fine → coarse
    seen_types: set[str] = set()
    out = []
    for r in ctx:
        layer = str(f["layer"][r])
        t = index.layer_type.get(layer, layer)
        if t in seen_types:
            continue  # one feature per type, finest wins (the memo)
        seen_types.add(t)
        out.append(index.feature_at(r))
    index._context_cache[key] = out
    return out


def _interp_line(line: list, t: float) -> tuple[float, float]:
    """Point at cumulative-length fraction t ∈ [0,1] along a polyline."""
    import math as _m

    if len(line) == 1:
        return float(line[0][0]), float(line[0][1])
    seg_len = [
        _m.hypot(line[i + 1][0] - line[i][0], line[i + 1][1] - line[i][1])
        for i in range(len(line) - 1)
    ]
    total = sum(seg_len) or 1.0
    target = max(0.0, min(1.0, t)) * total
    acc = 0.0
    for i, sl in enumerate(seg_len):
        if acc + sl >= target or i == len(seg_len) - 1:
            f = (target - acc) / sl if sl else 0.0
            return (
                line[i][0] + (line[i + 1][0] - line[i][0]) * f,
                line[i][1] + (line[i + 1][1] - line[i][1]) * f,
            )
        acc += sl
    return float(line[-1][0]), float(line[-1][1])


import re as _re

# Address style vtable (addresscluster.js:13,338-420): per-style match
# strings + matchers. NOTE the reference's `.replace(/[^\d]/, '')` has
# no /g flag — it strips only the FIRST non-digit; mirrored exactly.


def _standard_match_strings(addr: str) -> dict:
    return {
        "raw": addr.lower(),
        "numeric": _re.sub(r"[^\d]", "", addr, count=1),
        "initial_numeric": _re.sub(r"^(\d+)([^\d].*)", r"\1", addr),
    }


def _queens_match_strings(addr: str) -> dict:
    return {
        "raw": addr.lower(),
        "hyphenated": _re.sub(r"[^\d-]", "", addr, count=1),
        "numeric": _re.sub(r"[^\d]", "", addr, count=1),
        "has_hyphen": "-" in addr,
    }


def _matches_standard(q: dict, f: dict, prefix: bool = False) -> int:
    """→ -1 no match; ≥0 match rank (lower is better)."""
    if prefix:
        if f["raw"].startswith(q["raw"]):
            return 0
        if f["raw"].startswith(q["numeric"]):
            return 1
        return -1
    if f["raw"] == q["raw"]:
        return 0
    if f["raw"] == q["numeric"]:
        return 1
    if f["initial_numeric"] and f["initial_numeric"] == q["initial_numeric"]:
        return 2
    return -1


def _matches_queens(q: dict, f: dict, prefix: bool = False) -> int:
    if prefix:
        if f["raw"].startswith(q["raw"]):
            return 0
        if f["hyphenated"].startswith(q["hyphenated"]):
            return 1
        if f["numeric"].startswith(q["numeric"]) and not q["has_hyphen"]:
            return 2
        return -1
    if f["raw"] == q["raw"]:
        return 0
    if f["hyphenated"] == q["hyphenated"]:
        return 1
    if f["numeric"] == q["numeric"] and not q["has_hyphen"]:
        return 2
    return -1


ADDRESS_STYLE_VTABLE = {
    "standard": (_standard_match_strings, _matches_standard),
    "queens": (_queens_match_strings, _matches_queens),
}


def match_address_cluster(feature, number: str, prefix: bool = False) -> int | None:
    """→ index into the feature's address cluster matching `number`
    under the feature's address style, or None (addresscluster.js
    getAddressStyle + matchesStyle)."""
    anj = feature.addr_numbers_json
    if not anj:
        return None
    nums = json.loads(anj)
    style = getattr(feature, "addr_style", "") or "standard"
    if style not in ADDRESS_STYLE_VTABLE:
        style = "standard"
    gen, matcher = ADDRESS_STYLE_VTABLE[style]
    q = gen(number)
    best_rank, best_i = None, None
    for i, n in enumerate(nums):
        rank = matcher(q, gen(str(n)), prefix)
        if rank >= 0 and (best_rank is None or rank < best_rank):
            best_rank, best_i = rank, i
    return best_i


def number_only_subquery(subquery: str) -> bool:
    """Single-token digits/# subquery (phrasematch.js:225's
    `subquery.length === 1 && subquery[0].match(/^[\\d#]+$/)`)."""
    return bool(subquery) and " " not in subquery and all(
        c.isdigit() or c == "#" for c in subquery)


def _addr_lines(geom: dict) -> list:
    """Range lines of an address geometry: MultiLineString coords,
    a single LineString, or every line member of a GeometryCollection
    (the mixed cluster+range shape, geocode-unit.address-misc)."""
    t = geom.get("type")
    if t == "MultiLineString":
        return geom["coordinates"]
    if t == "LineString":
        return [geom["coordinates"]]
    if t == "GeometryCollection":
        out = []
        for g in geom.get("geometries", []):
            out.extend(_addr_lines(g))
        return out
    return [geom.get("coordinates", [])]


def _addr_cluster_coords(geom: dict) -> list:
    """Cluster points: MultiPoint coords or the MultiPoint members of
    a GeometryCollection, in member order."""
    t = geom.get("type")
    if t == "MultiPoint":
        return geom["coordinates"]
    if t == "GeometryCollection":
        out = []
        for g in geom.get("geometries", []):
            if g.get("type") == "MultiPoint":
                out.extend(g["coordinates"])
        return out
    return []


def feature_user_props(feature, pt_index=None) -> dict:
    """User properties passthrough with carmen:addressprops per-point
    overrides (feature.js storableProperties +
    geocode-unit.address-properties): override keys are cluster point
    indexes; a null override REMOVES the property for that point."""
    props: dict = {}
    pj = getattr(feature, "props_json", "") or ""
    if pj:
        props = json.loads(pj)
    apj = getattr(feature, "addressprops_json", "") or ""
    if apj and pt_index is not None:
        for k, ov in json.loads(apj).items():
            key = str(pt_index)
            if key in ov:
                if ov[key] is None:
                    props.pop(k, None)
                else:
                    props[k] = ov[key]
    return props


def resolve_address_prefix(feature, number: str, proximity=None) -> dict | None:
    """Partial-number resolution (addresscluster.js forwardPrefix +
    forwardPrefixFiltered): prefix-match the cluster under the feature's
    address style keeping the best rank tier, numeric-sort the hits,
    take first/last/middle, and return the one closest to the proximity
    point. No ITP fallback — prefix queries never interpolate
    (verifymatch.js:404-416)."""
    anj = feature.addr_numbers_json
    if not anj:
        return None
    nums = json.loads(anj)
    style = getattr(feature, "addr_style", "") or "standard"
    if style not in ADDRESS_STYLE_VTABLE:
        style = "standard"
    gen, matcher = ADDRESS_STYLE_VTABLE[style]
    q = gen(number)
    best_rank = None
    hits: list[int] = []
    for i, n in enumerate(nums):
        rank = matcher(q, gen(str(n)), True)
        if rank < 0:
            continue
        if best_rank is None or rank < best_rank:
            best_rank, hits = rank, [i]
        elif rank == best_rank:
            hits.append(i)
    if not hits:
        return None
    geom = json.loads(feature.geometry_json)
    coords = _addr_cluster_coords(geom)
    hits = [i for i in hits if i < len(coords)]
    if not hits:
        return None

    def _as_int(i):
        s = str(nums[i])
        return int(s) if s.isdigit() else 0

    hits.sort(key=_as_int)
    fml = [hits[0]]
    if len(hits) > 1:
        fml.append(hits[-1])
    if len(hits) > 2:
        fml.append(hits[len(hits) >> 1])
    if proximity is not None:
        fml.sort(key=lambda i: float(prox.haversine_miles(
            float(proximity[0]), float(proximity[1]),
            float(coords[i][0]), float(coords[i][1]))))
    pick = fml[0]
    pt = coords[pick]
    return {"address": str(nums[pick]), "lon": float(pt[0]), "lat": float(pt[1]),
            "omitted": False, "line": None}


def resolve_address_all(feature, number: str, num: int = 10) -> list[dict]:
    """Address cluster match via the style vtable (R5,
    addresscluster.js:61-218, 338-420) then TIGER-range interpolation
    with parity masks (R6, addressitp.js:35-169; nearest-fallback ≤400
    housenumbers).

    Returns EVERY cluster point at the best style-match rank, capped at
    `num` (addresscluster.js:61-115 — a house number duplicated inside
    one cluster yields several result features, the duplicate-address
    acceptance's '100 Main st' → two '100 Main st' rows); ITP
    interpolation contributes at most one."""
    anj = feature.addr_numbers_json
    if anj:
        nums = json.loads(anj)
        style = getattr(feature, "addr_style", "") or "standard"
        if style not in ADDRESS_STYLE_VTABLE:
            style = "standard"
        gen, matcher = ADDRESS_STYLE_VTABLE[style]
        q = gen(number)
        best_rank, hits = None, []
        for i, n in enumerate(nums):
            rank = matcher(q, gen(str(n)), False)
            if rank < 0:
                continue
            if best_rank is None or rank < best_rank:
                best_rank, hits = rank, [i]
            elif rank == best_rank:
                hits.append(i)
        if hits:
            geom = json.loads(feature.geometry_json)
            coords = _addr_cluster_coords(geom)
            out = []
            for i in hits:
                if len(out) >= num:
                    break
                if i < len(coords):
                    pt = coords[i]
                    # carmen:address keeps the QUERY's number form
                    # ('9b' matched to cluster entry 9 renders '9b');
                    # only the 'queens' style overrides with the
                    # cluster value (addresscluster.js:23,100-102)
                    addr_out = (str(nums[i]) if style == "queens"
                                else str(number))
                    out.append({"address": addr_out, "lon": float(pt[0]),
                                "lat": float(pt[1]), "omitted": False,
                                "line": None, "pt_index": i})
            if out:
                return out

    itp = _resolve_address_itp(feature, number)
    return [itp] if itp else []


def resolve_address(feature, number: str) -> dict | None:
    """First match of resolve_address_all — the single-point form the
    staged hydrate and reverse paths use (their dedupe drops the extra
    same-name points anyway, see VerifyHydrate)."""
    all_ = resolve_address_all(feature, number, num=1)
    return all_[0] if all_ else None


def _resolve_address_itp(feature, number: str) -> dict | None:
    arj = feature.addr_range_json
    num = None
    if arj:
        # alphanumeric / hyphenated numbers interpolate on their
        # numeric part but render the query's own form ('9b' → 9,
        # '23-414' → parseSemiNumber; addressitp.js:2,56)
        if number.isdigit():
            num = int(number)
        else:
            from ..text.termops import parse_semi_number

            num = parse_semi_number(number)
    if num is not None:
        rng = json.loads(arj)
        geom = json.loads(feature.geometry_json)
        lines = _addr_lines(geom)
        best_fallback = None
        for side in ("l", "r"):
            frs = rng.get(f"{side}fromhn") or []
            tos = rng.get(f"{side}tohn") or []
            pars = rng.get(f"parity{side}") or []
            li = 0
            for mi, (fr_list, to_list) in enumerate(zip(frs, tos)):
                par_list = pars[mi] if mi < len(pars) else []
                for k, (fr_s, to_s) in enumerate(zip(fr_list, to_list)):
                    # per-LINE range values: the k-th entry of a member
                    # maps to the k-th flattened line (carmen authors
                    # lfromhn parallel to the MultiLineString lines —
                    # geocode-unit.address-misc's Icelandic shape);
                    # null entries mean the side has no range there
                    line = lines[li] if li < len(lines) else lines[0]
                    li += 1
                    if fr_s is None or to_s is None:
                        continue
                    if str(fr_s).isdigit() and str(to_s).isdigit():
                        fr, to = int(fr_s), int(to_s)
                    else:
                        from ..text.termops import parse_semi_number

                        fr = parse_semi_number(str(fr_s))
                        to = parse_semi_number(str(to_s))
                        if fr is None or to is None:
                            continue
                    parity = (par_list[k] if k < len(par_list)
                              and par_list[k] else "B")
                    lo, hi = min(fr, to), max(fr, to)
                    parity_ok = (
                        parity == "B" or
                        (parity == "E" and num % 2 == 0) or
                        (parity == "O" and num % 2 == 1)
                    )
                    if lo <= num <= hi and parity_ok:
                        t = (num - fr) / (to - fr) if to != fr else 0.0
                        lon, lat = _interp_line(line, t)
                        return {"address": number, "lon": lon, "lat": lat,
                                "omitted": False, "line": line}
                    if lo - 400 <= num <= hi + 400:  # loose/nearest fallback
                        t = 0.0 if num < lo else 1.0
                        lon, lat = _interp_line(line, t if fr < to else 1.0 - t)
                        best_fallback = {"address": number, "lon": lon, "lat": lat,
                                         "omitted": True, "line": line}
        if best_fallback:
            return best_fallback
    return None


def _feature_langs(feature) -> dict[str, str]:
    """Available texts of a feature keyed by language plus 'default'."""
    try:
        langs = json.loads(feature.langs_json) if feature.langs_json else {}
    except (TypeError, ValueError):
        langs = {}
    return {"default": feature.text, **langs}


def _display_text(feature, language: str | None) -> tuple[str, str | None]:
    """→ (display text, matched language key) honoring carmen's
    closest-lang fallback (format-features.js getPlaceName language
    selection). Display text is the first comma-synonym, trimmed —
    closest-lang.js:324-328 (the text-trim acceptance: '  Colombia\\n'
    renders as 'Colombia')."""
    if not language:
        return feature.text.split(",")[0].strip(), None
    available = _feature_langs(feature)
    key, text = closest_lang(language, available)
    return ((text or feature.text).split(",")[0].strip(),
            (None if key == "default" else key))


def _lang_allows(feature, language: str | None,
                 language_mode: str | None, index=None) -> bool:
    """featureMatchesLanguage over a feature row (filter-sources.js:119):
    gates both result features and context entries of place_name in
    languageMode=strict (format-features.js:74,211). Universal-text
    layers always pass (geocoder_universal_text; the indexer marks
    their text 'universal')."""
    from ..text.closest_lang import feature_matches_language

    if language_mode != "strict" or not language:
        return True
    if index is not None and feature.layer in index.universal_text_layers:
        return True
    return feature_matches_language(_feature_langs(feature), language,
                                    language_mode)


def _resolve_worldview(index: IndexData, worldview: str | None) -> str | None:
    """geocode.js:222-224 / :343-345: default to the first configured
    worldview, reject unknown ones. Indexes without a worldviews config
    pass the option through untouched (legacy filtering)."""
    wvs = getattr(index, "worldviews", None) or []
    if not wvs:
        return worldview
    wv = worldview or wvs[0]
    if wv not in wvs:
        raise ValueError("Worldview must be one of " + ", ".join(wvs))
    return wv


def _layer_in_worldview(index: IndexData, layer: str,
                        worldview: str | None) -> bool:
    """byworldview membership (index.js:139-152): a layer participates
    in its own worldview, or in all when unbound."""
    if worldview is None:
        return True
    return index.layer_worldview.get(layer, "all") in ("all", worldview)


def _feature_types(index: IndexData, feature) -> list[str]:
    """carmen:types of a feature; defaults to the layer's type name
    (context.js:655-658, index.js:123)."""
    tj = getattr(feature, "types_json", "") or ""
    if tj:
        try:
            return list(json.loads(tj))
        except (TypeError, ValueError):
            pass
    layer = str(feature.layer)
    return [index.layer_type.get(layer, layer)]


def _stack_chain(index: IndexData, feats: list, types=None,
                 dists: list | None = None,
                 polys: list | None = None,
                 reverse_mode: str = "distance") -> list:
    """stackFeatures' type-memo walk (context.js:175-255) over a
    fine→coarse chain: each feature takes its last-to-first untaken
    carmen:type; before the first kept feature, a requested-types
    filter drops both candidate types and whole features (after it,
    coarser features stack as context regardless of types). Returns
    [(feature, selected_type)] — the selected type drives the shifted
    extid ('caracas' multityped [region, place] returned standalone is
    place.1, geocode-unit.multitype).

    When query distances are provided (the reverse path), the full
    conflict semantics run: a claimed feature also claims its NAME
    group (carmen:conflict, context.js:652 — set when geocoder_name ≠
    geocoder_type), and a later non-polygon feature strictly closer to
    the query evicts the holder and every memo reference to it
    (context.js:216-238) — unless the holder's type is explicitly
    requested (a conflicting feature cannot bump a wanted type)."""
    base_types = {t.split(".", 1)[0] for t in types} if types else None
    memo: dict[str, int] = {}
    sel_type: dict[int, str] = {}
    first = False
    for i, feat in enumerate(feats):
        layer = str(feat.layer)
        ltype = index.layer_type.get(layer, layer)
        lname = index.layer_name.get(layer, layer)
        conflict = lname if lname != ltype else None
        for t in reversed(_feature_types(index, feat)):
            if base_types is not None and not first and t not in base_types:
                continue
            if t not in memo:
                memo[t] = i
                if conflict is not None:
                    memo[conflict] = i
                sel_type[i] = t
                first = True
                break
            # occupied: distance-based eviction (reverse only)
            j = memo[t]
            if dists is None:
                continue
            if polys is not None and polys[i]:
                continue  # a polygon never bumps (context.js:216)
            if reverse_mode == "score":
                si = float(feats[i].score)
                sj = float(feats[j].score)
                if not si > 0 and sj > 0:
                    continue
                if si > 0 and sj > 0 and sj >= si:
                    continue
            if dists[i] >= dists[j]:
                continue
            if base_types is not None and t not in base_types:
                continue  # can't bump a wanted type (context.js:226)
            for k in [k for k, v in memo.items() if v == j]:
                del memo[k]
            sel_type.pop(j, None)
            memo[t] = i
            if conflict is not None:
                memo[conflict] = i
            sel_type[i] = t
            break
    return [(feats[i], sel_type[i]) for i in sorted(sel_type)]


def _extid(index: IndexData, feat, sel_type: str) -> str:
    """carmen:extid reconstruction (context.js:213): type-shifted ids
    for multityped / name-aliased features; plain features keep their
    exact document id (ids are not required to be '<layer>.<int>')."""
    layer = str(feat.layer)
    if sel_type == layer:
        return str(feat.doc_id)
    return f"{sel_type}.{int(feat.fid)}"


def _feature_allowed_types(index: IndexData, feature, types) -> bool:
    """featureMatchesTypes (filter-sources.js:82-110): a plain type must
    appear in the feature's carmen:types; a 'type.subtype' additionally
    requires the feature's score inside the subtype's range of the
    OWNING source's maxscore."""
    ftypes = _feature_types(index, feature)
    layer = str(feature.layer)
    for t in types:
        parts = t.split(".", 1)
        if len(parts) == 1:
            if t in ftypes:
                return True
        else:
            base, sub = parts
            rng = index.layer_scoreranges.get(layer, {}).get(sub)
            if base in ftypes and rng is not None:
                ms = index.layer_maxscore.get(layer, index.max_score)
                if rng[0] * ms <= float(feature.score) <= rng[1] * ms:
                    return True
    return False


def _validate_types(index: IndexData, types) -> list[str]:
    """options.types validation + normalization (geocode.js:68-84):
    must be a non-empty list of known types ('<type>' from each
    source's declared types or '<type>.<subtype>' from scoreranges);
    a subtype accompanied by its own base type is dropped; the rest
    are deduped and sorted."""
    if not isinstance(types, (list, tuple)) or len(types) < 1:
        raise ValueError("options.types must be an array with at least 1 type")
    acceptable: list[str] = []
    layers = index.layers or sorted(
        set(index.layer_type) | set(index.layer_scoreranges))
    for l in layers:
        for t in index.layer_decl_types(l):
            if t not in acceptable:
                acceptable.append(t)
        base = index.layer_type.get(l, l)
        for sub in index.layer_scoreranges.get(l, {}):
            st = f"{base}.{sub}"
            if st not in acceptable:
                acceptable.append(st)
    req = set(types)
    for t in types:
        if t not in acceptable:
            raise ValueError(
                f'Type "{t}" is not a known type. Must be one of: '
                + ", ".join(acceptable))
        if "." in t and t.split(".", 1)[0] in req:
            # poi.landmark alongside poi: the base type subsumes it
            req.discard(t)
    return sorted(req)


def _feature_matches_stacks(feature, stacks) -> bool:
    """filter-sources.js:71-77 featureMatchesStacks: stack-less features
    always pass; otherwise the feature's carmen:geocoder_stack must be
    one of the requested stacks."""
    fs = getattr(feature, "stack", "") or ""
    return (not fs) or fs in stacks


def get_matching_text(index: IndexData, feature, source_phash: int,
                      language: str | None, query_text: str,
                      closest_key: str | None,
                      display: str) -> tuple[str | None, str | None]:
    """getMatchingText (format-features.js:383-488): recover WHICH
    synonym/translation produced the matched phrase via the stored
    source text hash, pick the best by query edit distance when several
    share the hash, resolve its language with closest-lang, drop
    category matches, and suppress when it equals the display text.
    Returns (matching_text, matching_language).

    Memoized per actor: pure in (feature, phash, language, query_text,
    closest_key, display) given the static index tables, and hot
    features are verified for many queries."""

    closest_text = display.split(",")[0].strip()
    ckey = (int(feature.idx), int(feature.fid))
    okey = (ckey, source_phash, language, query_text, closest_key,
            closest_text)
    memo = index._mt_out_cache.get(okey)
    if memo is None:
        memo = _get_matching_text_impl(
            index, feature, source_phash, language, query_text,
            closest_key, closest_text, ckey)
        if len(index._mt_out_cache) >= 1 << 17:
            index._mt_out_cache.clear()
        index._mt_out_cache[okey] = memo
    return memo


def _get_matching_text_impl(index, feature, source_phash, language,
                            query_text, closest_key, closest_text, ckey):
    # per-feature phash → {text: [lang keys]} table, cached per actor
    by_phash = index._mt_cache.get(ckey)
    if by_phash is None:
        try:
            langs = json.loads(feature.langs_json) if feature.langs_json else {}
        except (TypeError, ValueError):
            langs = {}
        # candidate source texts keyed by language ("default" =
        # main+synonyms). synonyms is an element of a numpy object
        # column (an ndarray after the Arrow list<string> → pandas
        # conversion) — `arr or []` raises on 2+-element arrays, so
        # test None/len explicitly.
        _syns = getattr(feature, "synonyms", None)
        text_sources: dict[str, list[str]] = {
            "default": [feature.text]
            + (list(_syns) if _syns is not None and len(_syns) else [])}
        for k, v in langs.items():
            if v:
                text_sources[k] = v.split(",") if isinstance(v, str) else list(v)
        by_phash = {}
        for key, texts_ in text_sources.items():
            for t in texts_:
                t = t.strip()
                if t:
                    by_phash.setdefault(phrase_hash(t), {}).setdefault(
                        t, []).append(key)
        if len(index._mt_cache) >= 1 << 17:
            index._mt_cache.clear()
        index._mt_cache[ckey] = by_phash

    hash_matches = by_phash.get(source_phash)
    if not hash_matches:
        return None, None
    if len(hash_matches) == 1:
        best_phrase = next(iter(hash_matches))
    else:
        qt = (query_text or "").lower()
        best_phrase = min(
            hash_matches,
            key=lambda a: (dl_distance(qt, a.lower(), max(len(qt), len(a))), a))

    keys = hash_matches[best_phrase]
    best = None
    if language:
        lbl = closest_lang_label(language, [k for k in keys if k != "default"])
        if lbl:
            best = lbl
    elif "default" in keys:
        best = "default"
    if best is None:
        non_def = sorted(k for k in keys if k != "default")
        if not non_def and "default" in keys:
            best = "default"
        elif non_def:
            best = non_def[0]
    if best is None:
        return None, None

    matching_text = best_phrase.strip()
    if best == "default":
        # category matches never surface as matching_text
        # (format-features.js:462-464)
        if matching_text in index.layer_categories.get(feature.layer, ()):
            return None, None
    if not matching_text or matching_text == closest_text:
        return None, None
    matching_language = None
    if best != "default" and best != closest_key:
        matching_language = best.replace("_", "-")
    return matching_text, matching_language


# layers whose features can inherit / grant score for the squishy logic
# (verifymatch.js:758-821: geocoder_inherit_score / geocoder_grant_score)
INHERIT_SCORE_LAYERS = {"place"}
GRANT_SCORE_LAYERS = {"region", "country"}


def _direction_effects(covers, relevance: float,
                       ignore_layers: frozenset = frozenset(),
                       address_order: str = "ascending") -> float:
    """Backy ×0.5 + direction bonus (verifymatch.js:847-933):
    walk the matched covers in hierarchy order (fine→coarse); establish
    the typed direction from the first pair of masks; each
    order-contradicting cover contributes only half its relev; a
    directioned match costs 0.01, refunded when it matches the expected
    address order (ascending by default). Covers from layers with
    geocoder_ignore_order (verifymatch.js:805-811, 905-912) neither set
    the direction nor take the backy penalty."""
    if len(covers) < 2:
        return relevance
    direction = None
    lastmask = -1
    lasttext = None
    lastlayer = None
    adj = 0.0
    for k, e in enumerate(covers):
        backy = False
        ignore = e.pm.layer in ignore_layers or (
            lastlayer is not None and lastlayer in ignore_layers)
        if k > 0:
            if direction is None and not ignore:
                direction = "ascending" if lastmask < e.pm.mask else "descending"
            if e.pm.subquery != lasttext:
                if direction == "ascending":
                    backy = lastmask > e.pm.mask
                else:
                    backy = lastmask < e.pm.mask
        if backy and not ignore:
            adj -= 0.5 * e.relev
        lastmask = e.pm.mask
        lasttext = e.pm.subquery
        lastlayer = e.pm.layer
    relevance = relevance + adj
    if direction:
        relevance -= 0.01
        if direction == address_order:  # geocoder_address_order
            relevance += 0.01
    return max(relevance, 0.0)


def close_but_no_cigar_adj(tmpids, idxs, zooms, sublens, masks, relevs,
                           feature_tmpid: int, ctx,
                           ctx_strict_masks: dict | None = None) -> float:
    """verifymatch.js:781-793, 903-930: covers whose feature is NOT in
    the result's context chain get half credit when the chain holds a
    different feature of the same index (nearby same-layer match) and
    zero credit otherwise. Returns the relevance ADJUSTMENT (≤0)
    relative to the full-credit stack relev, mirroring the reference's
    context-walk recompute. Noise guard: low-zoom (≤8) or very short
    (≤3 chars) near-misses are dropped entirely; near-miss credit only
    counts when its masks don't collide with the aligned ones.

    Array form shared by the fused and staged verify stages: parallel
    per-cover arrays (grid tmpid, index, zoom, subquery char length,
    mask, rebalanced relev)."""
    chain_tmpids = {feature_tmpid}
    chain_idxs = set()
    for c in ctx:
        chain_tmpids.add(int(c.idx) * TMPID_SHIFT + int(c.fid))
        chain_idxs.add(int(c.idx))
    chain_idxs.add(feature_tmpid >> 25)

    usedmask = 0
    for t, m in zip(tmpids, masks):
        if t in chain_tmpids:
            usedmask |= m
    adj = 0.0
    close_credit = 0.0
    closemask = 0
    for t, ix, z, sl, m, rv in zip(tmpids, idxs, zooms, sublens, masks, relevs):
        if t in chain_tmpids:
            continue
        if ctx_strict_masks:
            # the reference's walk recomputes relevance from the RESULT
            # CONTEXT against the query-wide strict cover map
            # (verifymatch.js:776): when an in-context feature claimed
            # the SAME subquery mask in any stack, that aligned claim
            # takes the credit at full value — 'xeorxia' doubling as an
            # aligned region synonym and a near-miss place synonym stays
            # at relevance 1 (geocode-unit.near-alignment:179-192)
            claimed = False
            for ct in chain_tmpids:
                mm = ctx_strict_masks.get(ct)
                if mm and m in mm:
                    claimed = True
                    break
            if claimed:
                continue  # keep full credit for this token
        if ix in chain_idxs and z > 8 and sl > 3:
            adj -= rv                 # remove full credit...
            close_credit += 0.5 * rv  # ...maybe restore half
            closemask |= m
        else:
            adj -= rv                 # unmatched cover: no credit
    if closemask and (closemask & usedmask) == 0:
        adj += close_credit
    return adj


def _close_but_no_cigar(covers, feature_tmpid: int, ctx,
                        ctx_strict_masks: dict | None = None) -> float:
    return close_but_no_cigar_adj(
        [e.grid.tmpid for e in covers], [e.pm.idx for e in covers],
        [e.pm.zoom for e in covers], [len(e.pm.subquery) for e in covers],
        [e.pm.mask for e in covers], [e.relev for e in covers],
        feature_tmpid, ctx, ctx_strict_masks=ctx_strict_masks)


def _squishy_boost(index: IndexData, feature, ctx, matched_tmpids: set) -> float:
    """Score inheritance for nested identically-named features
    ("new york, new york" — verifymatch.js:813-821, 938-965).
    matched_tmpids: grid tmpids of the stack's covers."""
    if feature.layer not in index.inherit_score_layers:
        return 0.0
    target = feature.text.lower()
    boost = 0.0
    for parent in ctx:
        if parent.layer not in index.grant_score_layers:
            continue
        # parents carry idx/fid/score directly (Feature or a denormalized
        # context row) — no feature-store lookup, so hash(fid)-sharded
        # verify actors grant the boost without holding the parent's row
        ptmpid = int(parent.idx) * TMPID_SHIFT + int(parent.fid)
        if ptmpid not in matched_tmpids:
            continue
        if str(parent.text).lower() == target:
            boost += max(float(parent.score), 0.0)
    return boost


def attach_proximity(index: IndexData, pms, proximity) -> None:
    """Vectorized distance + scoredist for every grid of every pm."""
    px, py = float(proximity[0]), float(proximity[1])
    for pm in pms:
        n = len(pm.grids)
        if n == 0:
            continue
        tmpids = np.fromiter((g.tmpid for g in pm.grids), dtype=np.int64, count=n)
        pos = np.searchsorted(index._tmpids_sorted, tmpids)
        pos = np.clip(pos, 0, len(index._tmpids_sorted) - 1)
        found = index._tmpids_sorted[pos] == tmpids
        rows = index._tmpid_rows[pos]
        clon = np.where(found, index._f["center_lon"][rows], 0.0)
        clat = np.where(found, index._f["center_lat"][rows], 0.0)
        center_d = prox.haversine_miles(px, py, clon, clat)
        # furthest cover corner bound (vectorized over the 4 corners)
        xs = np.fromiter((g.x for g in pm.grids), dtype=np.float64, count=n)
        ys = np.fromiter((g.y for g in pm.grids), dtype=np.float64, count=n)
        nz = 2.0 ** pm.zoom
        max_corner = np.zeros(n)
        for dx in (0.0, 1.0):
            for dy in (0.0, 1.0):
                lon = (xs + dx) / nz * 360.0 - 180.0
                lat = np.degrees(np.arctan(np.sinh(np.pi * (1 - 2 * (ys + dy) / nz))))
                d = prox.haversine_miles(px, py, lon, lat)
                max_corner = np.maximum(max_corner, d)
        dist = np.where(found, np.minimum(center_d, max_corner), 0.0)
        # per-source geocoder_coalesce_radius (indexer/index.js:233)
        # overrides the zoom-scaled radius inside scoredist
        sd = prox.scoredist(
            np.fromiter((g.score for g in pm.grids), dtype=np.float64, count=n),
            index.min_score, index.max_score, dist, pm.zoom,
            radius=index.layer_coalesce_radius.get(pm.layer))
        for i, g in enumerate(pm.grids):
            g.distance = float(dist[i])
            g.scoredist = float(sd[i])


_SHORT_ADDR_RE = re.compile(r"^[\d#]+\s*\S{0,2}$")


_FMT_PLACEHOLDER = re.compile(r"\{\{(\w+)\.(\w+)\}\}")


def render_feature_format(index, feature, display, ctx, ctx_names,
                          matched_address, language) -> str | None:
    """Per-feature carmen:format / carmen:format_{lang} templates
    (format-features.js getPlaceName:53-63 pick the feature template
    over the source format; :80-112 is the templated render): layer-
    typed {{type.name}} / {{type.number}} placeholders filled from the
    result chain, then the reference's artifact cleanup. The template
    for `language` is picked by config.format_for_language — exact
    code, case-insensitive code, primary language, then the default
    template; never the display-text fallback table. None when neither
    the feature nor its source authors a usable format (callers fall
    back to the config-level format path)."""
    fj = getattr(feature, "formats_json", "") or ""
    if fj:
        fmts = json.loads(fj)
    else:
        # fall back to the SOURCE-level geocoder_format templates
        # (getFormatString; the address-format acceptance)
        fmts = index.layer_formats.get(str(feature.layer))
        if not fmts:
            return None
    tmpl = format_for_language(fmts, language)
    if not tmpl:
        return None
    ftype = index.layer_type.get(str(feature.layer), str(feature.layer))
    vals = {ftype: {"name": display, "number": str(matched_address or "")}}
    for c, nm in zip(ctx, ctx_names):
        t = index.layer_type.get(str(c.layer), str(c.layer))
        vals.setdefault(t, {"name": nm, "number": ""})
    out = _FMT_PLACEHOLDER.sub(
        lambda m: str(vals.get(m.group(1), {}).get(m.group(2), "")), tmpl)
    # unresolved-context cleanup chain (format-features.js:112)
    out = re.sub(r"\{.+?\}", "", out)
    out = re.sub(r",\s*$", "", out)
    out = out.replace(" , ", ", ").replace("  ", " ")
    out = out.replace(", ,", ",").replace(",,", ",")
    return out.strip().strip(",").strip()


def _result_sort_key(r: dict):
    """Forward result total order (verifymatch.js:1003-1053
    sortContext shape): relevance, proximity composite, the
    omitted-geometry demotion (sortContext's omittedDifference),
    scoredist, the cluster-over-interpolation preference
    (verifymatch.js:1036-1046; the cluster-vs-range acceptance), then
    then carmen:position (the verify stack ordinal,
    verifymatch.js:1048-1050) and the deterministic idx/fid tail."""
    return (-r["relevance"], -r["composite"], r.get("omitted", False),
            -r["scoredist"], r.get("interpolated", False),
            r["idx"], r.get("position", 0), r["fid"])


def _addr_dedupe_key(index: IndexData, feature, covers, ctx) -> str | None:
    """uniqueAddressId (format-features.js:320-374): address-source
    results additionally dedupe on the stack's matched cover texts plus
    one context extid per remaining layer, so a cluster hit and its
    differently-spelled street twin ('Main st' / 'Main street') reached
    via the same matched phrase collapse even though their place_names
    differ. Skipped for short numeric autocomplete covers
    (isShortAddressQuery). The reference filters context extids by the
    types named in geocoder_format; this engine's format template has
    no per-type placeholders, so every context layer contributes
    (slightly stricter keys — documented divergence)."""
    if not covers:
        return None
    return addr_dedupe_key_parts(
        index, feature, " ".join(e.pm.subquery for e in covers),
        covers[0].pm.subquery, ctx)


def addr_dedupe_key_parts(index: IndexData, feature, cover_text: str,
                          top_subquery: str, ctx) -> str | None:
    """Core of _addr_dedupe_key, shared with the staged VerifyHydrate
    (which ships cover_text through the exchange instead of covers)."""
    if str(feature.layer) not in index.address_layers:
        return None
    if _SHORT_ADDR_RE.match(top_subquery or ""):
        return None
    parts = [cover_text]
    seen_layers = {str(feature.layer)}
    for c in ctx:
        lay = str(c.layer)
        if lay in seen_layers:
            continue
        seen_layers.add(lay)
        parts.append(str(c.doc_id))
    return "_" + ":".join(parts)


def forward_one(index: IndexData, query: str, proximity=None, limit: int = 5,
                autocomplete: bool = True, types: list[str] | None = None,
                fuzzy: bool = True, language: str | None = None,
                language_mode: str | None = None,
                stacks: list[str] | None = None,
                bbox: list[float] | None = None,
                allow_dupes: bool = False,
                _stats: dict | None = None,
                max_correction_length: int | None = None,
                verifymatch_stack_limit: int | None = None,
                spatialmatch_stack_limit: int | None = None,
                worldview: str | None = None) -> list[dict]:
    from ..text.token_replacer import replace_global_tokens

    # geocode.js:340 forward limit: default 5, hard cap 10 (the limit
    # acceptance passes limit=11 and expects 10)
    limit = min(int(limit), 10) if limit else 5
    if language_mode is not None and language_mode != "strict":
        # geocode.js option validation (geocode-unit.languageMode)
        raise ValueError(f"'{language_mode}' is not a valid language mode")
    languages: list[str] = []
    if language:
        from ..text.closest_lang import has_language

        # geocode.js language validation (the language-flag acceptance:
        # 'fake' errors, 'bg-nonexistent' falls back). A comma list
        # requests MULTI-LANGUAGE output (geocode.js:103-117 +
        # format-features.js toFeature: text_{lc} / place_name_{lc} /
        # language_{lc} per requested code, unsuffixed = first;
        # the multilanguage acceptance)
        languages = [l.strip() for l in str(language).split(",")]
        if len(languages) > 20:
            raise ValueError("options.language should be a list of no "
                             "more than 20 languages")
        if len(set(languages)) != len(languages):
            raise ValueError("options.language should be a list of "
                             "unique language codes")
        for lc in languages:
            if not has_language(lc):
                raise ValueError(f"'{lc}' is not a valid language code")
        language = languages[0]
    if bbox is not None:
        # geocode.js:126-142 bbox validation (EINVALID); the acceptance
        # (geocode-unit.bbox) passes length-3, non-numeric and
        # out-of-range arrays and expects errors
        if not isinstance(bbox, (list, tuple)) or len(bbox) != 4:
            raise ValueError(
                "BBox is not valid. Must be an array of format "
                "[minX, minY, maxX, maxY]")
        vals = []
        for i, (lo, hi, nm) in enumerate([(-180, 180, "minX"), (-90, 90, "minY"),
                                          (-180, 180, "maxX"), (-90, 90, "maxY")]):
            try:
                v = float(bbox[i])
            except (TypeError, ValueError):
                v = float("nan")
            if v != v or v < lo or v > hi:
                raise ValueError(
                    f"BBox {nm} value must be a number between {lo} and {hi}")
            vals.append(v)
        if vals[0] > vals[2]:
            raise ValueError("BBox minX value cannot be greater than maxX value")
        if vals[1] > vals[3]:
            raise ValueError("BBox minY value cannot be greater than maxY value")
    if types is not None:
        types = _validate_types(index, types)
    # worldview default + validation (geocode.js:343-345)
    worldview = _resolve_worldview(index, worldview)
    if index.global_rules:
        query = replace_global_tokens(index.global_rules, query)
    tq0 = tokenize(query)
    if getattr(index, "complex_query_rules", None):
        # complex query replacement over the raw token stream
        # (phrasematch.js:80 token.replaceToken before normalize —
        # the jp-passthrough acceptance's [8]丁目 → 八丁目 window)
        from ..text.token_replacer import replace_token

        tq0 = replace_token(index.complex_query_rules, tq0)
    tq = normalize_query(tq0)
    tokens = tq.tokens[: constants.MAX_QUERY_TOKENS]
    # ending type (phrasematch.js:84-93): a trailing separator or a
    # token-replaced final word restricts autocomplete to whole-word
    # prefixes (wordBoundaryPrefix) — 'dt ' or 'district'→'dt' must not
    # complete into 'dtown'
    last_word = tq.last_word
    ends_in_boundary = bool(tokens) and tq.separators[len(tokens) - 1] != ""
    orig_tokens: list[str] | None = None
    if index.simple:
        pre_replace = list(tokens)
        tokens, changed_last = index.simple.replace_query(tokens)
        last_word = last_word or changed_last
        if tokens != pre_replace:
            # carmen-core's word replacements match EITHER side — a
            # replaced query still finds phrases indexed under the
            # authored form ('fort' must keep matching 'fortenberry'
            # while also matching 'ft …';
            # fuzzy-with-tokens-and-autocomplete)
            orig_tokens = pre_replace
    if not tokens:
        return []
    word_boundary = bool(autocomplete) and (last_word or ends_in_boundary)

    # windowed fuzzy matching (phrasematch.js:55,106): edit budget 1,
    # gated on query token count ≤ MAX_CORRECTION_LENGTH like the
    # reference (the constant is a token-count gate, not a hypothesis
    # budget); the whitespace-split hypothesis changes the mask space
    # so it runs as a fallback query of its own length.
    # max_correction_length is a per-query option in the reference
    # (geocode.js options; cutoffs acceptance) defaulting to the constant
    mcl = (constants.MAX_CORRECTION_LENGTH
           if max_correction_length is None else max_correction_length)
    fz = 1 if (fuzzy and len(tokens) <= mcl) else 0
    pms: list[Phrasematch] = []
    tried: set = set()
    query_len = len(tokens)
    base_lists = [tokens] + ([orig_tokens] if orig_tokens else [])
    # the replaced-final-word boundary restriction belongs to the
    # REPLACED pass only — the authored-form pass autocompletes what
    # the user actually typed ('fort' → 'fortenberry')
    wb_orig = bool(autocomplete) and (tq.last_word or ends_in_boundary)
    for base in base_lists:
        wb = word_boundary if base is tokens else wb_orig
        for hyp_tokens, penalty in query_hypotheses(index, base,
                                                    fuzzy=False):
            if len(hyp_tokens) != len(tokens):
                continue
            pms.extend(phrasematch_query(
                index, hyp_tokens, autocomplete=autocomplete,
                word_boundary=wb,
                weight_multiplier=penalty, seen=tried,
                fuzzy_max_distance=fz,
                languages=languages))

    # intersection queries (R7, termops.js:872-902)
    col_i = PhrasematchCollector()
    intersection_phrasematches(index, tokens, col_i)
    pms.extend(col_i.out)

    # address variants (M13): waffle each numeric token; trailing numbers
    # also try the indexed leading form with the 0.99 number-order
    # penalty (phrasematch.js R1)
    from ..text.termops import num_tokenize

    # address permutations run with the same fuzzy budget as the main
    # hypotheses (phrasematch.js:236 fuzzyMatchMulti takes maxDistance)
    for var_tokens, addr in num_tokenize(tokens):
        pms.extend(phrasematch_query(index, var_tokens, autocomplete=autocomplete,
                                     word_boundary=word_boundary,
                                     seen=tried, address=addr["number"],
                                     fuzzy_max_distance=fz, languages=languages,
                                     number_order=number_order_of(var_tokens, addr)))
        if addr["position"] > 0:
            swapped = [var_tokens[addr["position"]]] + [
                t for i, t in enumerate(var_tokens) if i != addr["position"]]
            pms.extend(phrasematch_query(index, swapped, autocomplete=autocomplete,
                                          word_boundary=word_boundary,
                                         weight_multiplier=0.99, seen=tried,
                                         address=addr["number"],
                                         fuzzy_max_distance=fz,
                                         languages=languages,
                                         number_order="first"))
    # whitespace correction (M17 — whitespace.js:6-28 via
    # phrasematch.js:61-77): address sources only, and only with fuzzy
    # budget available; the corrected hypothesis runs with the budget
    # SPENT (maxDistance 0, every match at edit distance 1 → R1
    # penalty) and split words keep the source token's mask bit
    # (gapExpansionMasks) so they stack against base-hypothesis covers
    if fz and index.address_layers:
        from ..config import whitespace_hypothesis_map

        wsm = whitespace_hypothesis_map(tokens)
        if wsm is not None:
            ws_tokens, ws_map = wsm
            col_w = PhrasematchCollector()
            phrasematch_query(index, ws_tokens, autocomplete=autocomplete,
                              word_boundary=word_boundary, seen=tried,
                              mask_map=ws_map, weight_n=len(tokens),
                              initial_distance=1, collector=col_w,
                              languages=languages)
            for var_tokens, addr in num_tokenize(ws_tokens):
                phrasematch_query(index, var_tokens, autocomplete=autocomplete,
                                  word_boundary=word_boundary, seen=tried,
                                  address=addr["number"], mask_map=ws_map,
                                  weight_n=len(tokens), initial_distance=1,
                                  collector=col_w, languages=languages,
                                  number_order=number_order_of(var_tokens, addr))
            pms.extend(p for p in col_w.out
                       if p.layer in index.address_layers)
    # bare all-digit queries (phrasematch.js:185-232): with proxMatch
    # (proximity inside an address source's bounds) the hypothesis
    # becomes a partial-number search — the raw token AND its
    # numTokenizePrefix waffle variants (termops.js:917-943) match as
    # prefixes with every resulting pm partial_number/nearby-only.
    # Without proxMatch there is no address interpretation at all.
    if len(tokens) == 1 and tokens[0].isdigit() and proximity is not None:
        from ..text.termops import num_tokenize_prefix
        from ..util.bbox import am_inside

        ppt = (float(proximity[0]), float(proximity[1]))
        prox_layers = {l for l in index.address_layers
                       if l in index.layer_bounds
                       and am_inside(ppt, list(index.layer_bounds[l]))}
        if prox_layers:
            for pm in pms:
                if pm.layer in prox_layers and number_only_subquery(pm.subquery):
                    pm.partial_number = True
                    pm.address = tokens[0]
            for var in num_tokenize_prefix(tokens):
                partial_pms = phrasematch_query(index, var, autocomplete=True,
                                                word_boundary=word_boundary,
                                                seen=tried, address=tokens[0],
                                                languages=languages)
                for pm in partial_pms:
                    pm.partial_number = True
                pms.extend(p for p in partial_pms if p.layer in prox_layers)
    # number-only single-token subqueries never match address sources
    # outside the partial-number state (phrasematch.js:225)
    pms = [p for p in pms
           if not (p.layer in index.address_layers
                   and number_only_subquery(p.subquery)
                   and not p.partial_number)]

    # R2: single-char subqueries are noise against high-zoom indexes
    # (phrasematch.js:385-402)
    pms = [p for p in pms if not (len(p.subquery) == 1 and p.zoom >= 14)]
    pms = filter_misspelled_short(pms)
    if not pms:
        for hyp_tokens, penalty in query_hypotheses(index, tokens, fuzzy=False):
            if len(hyp_tokens) == len(tokens):
                continue
            pms = phrasematch_query(index, hyp_tokens, autocomplete=autocomplete,
                                     word_boundary=word_boundary,
                                    weight_multiplier=penalty,
                                    languages=languages)
            if pms:
                query_len = len(hyp_tokens)
                tokens = hyp_tokens
                break
    # types filter with subtype support (filter-sources.js:43-57
    # sourceMatchesTypes): "poi.landmark" passes layers whose config
    # declares the subtype in scoreranges; the score-range check itself
    # happens per feature below (featureMatchesTypes, :82-110).
    # NOTE: the reference never filters PHRASEMATCHES by type — excluded
    # sources still participate in stacking as context covers
    # ('100 main st washington dc' with types=['address'] needs the
    # place/region covers for relevance 1); the filter applies to a
    # stack's TOP cover at verify (verifymatch.js:190-197 sourceAllowed
    # on covers[0]) and per feature (featureAllowed).
    plain_types: set = set()
    subtype_filters: list[tuple[str, str]] = []
    if types:
        for t in types:
            if "." in t:
                base, sub = t.split(".", 1)
                subtype_filters.append((base, sub))
            else:
                plain_types.add(t)

    def _layer_allowed(layer: str) -> bool:
        # by the layer's DECLARED types (sourceMatchesTypes,
        # filter-sources.js:43-57): geocoder_types ∪ geocoder_name;
        # multityped features are re-checked per feature in verify
        for t in index.layer_decl_types(layer):
            if t in plain_types:
                return True
            for base, sub in subtype_filters:
                if t == base and sub in index.layer_scoreranges.get(layer, {}):
                    return True
        return False
    # worldview filter (context.js:37-67 byworldview): layers bound to a
    # different worldview don't participate
    if worldview is not None:
        pms = [p for p in pms
               if index.layer_worldview.get(p.layer, "all") in ("all", worldview)]
    if bbox is not None and pms:
        # phrasematch.js:42-43: sources whose bounds don't intersect the
        # requested bbox never phrasematch at all
        from ..util.bbox import am_intersect, inside_tile

        pms = [p for p in pms
               if p.layer not in index.layer_bounds
               or am_intersect(list(index.layer_bounds[p.layer]), bbox)]
        # spatialmatch.js:36-37 → carmen-core coalesce bbox: the box is
        # converted to a tile range at the stack's max zoom and grids
        # outside it (range scaled down per subquery zoom) never enter
        # stacking — without this, in-box low-score features are starved
        # out of the verify window by out-of-box twins
        if pms:
            maxz = max(p.zoom for p in pms)
            _, bx0, by0, bx1, by1 = inside_tile(bbox, maxz)
            for pm in pms:
                d = maxz - pm.zoom
                x0, y0, x1, y1 = bx0 >> d, by0 >> d, bx1 >> d, by1 >> d
                pm.grids = [g for g in pm.grids
                            if x0 <= g.x <= x1 and y0 <= g.y <= y1]
            pms = [pm for pm in pms if pm.grids]
    if not pms:
        return []

    # proximity: distance + scoredist per grid before stacking (the
    # Rust stage does this; ordering inside coalesce depends on it) —
    # vectorized per phrasematch (one haversine batch instead of 5×N
    # scalar calls; matters for hot names with hundreds of grids)
    if proximity is not None:
        attach_proximity(index, pms, proximity)
        # nearby-only (carmen-core coalesce `nearby_only`, set from
        # subquery.partial_number at phrasematch.js:374): grids of a
        # partial-number phrasematch count only within the coalesce
        # radius of the proximity point
        if any(p.partial_number for p in pms):
            for pm in pms:
                if pm.partial_number:
                    r = index.layer_coalesce_radius.get(
                        pm.layer, float(constants.COALESCE_PROXIMITY_RADIUS))
                    pm.grids = [g for g in pm.grids if g.distance <= r]
            pms = [pm for pm in pms if pm.grids]
    else:
        for pm in pms:
            for g in pm.grids:
                g.distance = 0.0
                g.scoredist = g.score

    cand_stacks = stack_and_coalesce(
        pms, query_len, idx_rank=index.idx_rank,
        non_overlap=getattr(index, "non_overlap", None),
        max_stacks=(spatialmatch_stack_limit
                    if spatialmatch_stack_limit is not None
                    else constants.SPATIALMATCH_STACK_LIMIT))
    if types:
        # verifymatch.js:190-197: stacks whose TOP cover's source fails
        # the types filter are skipped before the chunk loads (they
        # never consume verify budget)
        cand_stacks = [st for st in cand_stacks
                       if _layer_allowed(st.covers()[0].pm.layer)]
    # verify EVERY candidate stack and keep the best per feature — a
    # feature can be reached by several mask assignments ("new york new
    # york") and carmen scores them all, keeping the max
    # (verifymatch.js loads all contexts, then sorts).
    best_by_tmpid: dict[int, dict] = {}

    # query-wide matched-tmpid set over the squishy-relevant layers —
    # carmen's strict/loose maps span ALL candidate stacks
    # (verifymatch.js:767-769), so 'new york usa' grants the region's
    # score to the place even though the region cover sits in a
    # DIFFERENT stack (promote-on-identical-name acceptance)
    q_matched_tmpids: set[int] = {
        e.grid.tmpid for s_ in cand_stacks for e in s_.entries
        if e.pm.layer in index.grant_score_layers
        or e.pm.layer in index.inherit_score_layers}
    # query-wide tmpid → {cover masks} over every candidate stack (all
    # layers) — the strict map the context-walk recompute consults
    q_cover_masks: dict[int, set] = {}
    for s_ in cand_stacks:
        for e in s_.entries:
            q_cover_masks.setdefault(e.grid.tmpid, set()).add(e.pm.mask)

    def _verify_stack(st, si: int = 0) -> bool:
        """One candidate stack through hydrate → filters → scoring;
        False when the reference's verifyFeatures would have dropped it
        (the chunk protocol counts only successes as verified). `si` is
        the stack ordinal — carmen:position, the sortContext tie-break
        before the id tail (verifymatch.js:1048-1053)."""
        covers = st.covers()
        top = covers[0]
        frow = index.row_by_tmpid(top.grid.tmpid)
        if frow is None:
            return False
        feature = index.feature_at(frow)
        if getattr(feature, "reverse_only", False):
            # carmen:reverse_only features never become forward results
            # (verifymatch.js:472); they still serve context and reverse
            return False

        ctx = _context_for(index, frow, int(feature.idx), worldview=worldview)

        # address resolution (R5/R6) + routable point (R8).
        # addr_state mirrors carmen:address (verifymatch.js:397-463):
        # the matched number string, False (cluster/range present but
        # the number missed → street fallback, ×0.99 relev penalty),
        # None (address source without cluster/range), or "n/a" (no
        # number in the query at all).
        addr_number = next((e.pm.address for e in covers if e.pm.address), None)
        partial = any(e.pm.partial_number for e in covers)
        resolved_pts: list[dict] = []
        addr_state: object = "n/a"
        if addr_number is not None:
            if partial:
                # prefix-only resolution; clusterless / prefix-miss
                # features are dropped outright (verifymatch.js:404-416)
                rp = resolve_address_prefix(feature, addr_number, proximity)
                if rp is None:
                    return False
                resolved_pts = [rp]
                addr_state = rp["address"]
            elif feature.addr_numbers_json or feature.addr_range_json:
                resolved_pts = resolve_address_all(feature, addr_number)
                addr_state = (resolved_pts[0]["address"] if resolved_pts
                              else False)
            else:
                addr_state = None
        resolved = resolved_pts[0] if resolved_pts else None
        matched_address = resolved["address"] if resolved else None
        routable = None
        if resolved and resolved.get("line"):
            routable = nearest_point_on_multiline(
                resolved["lon"], resolved["lat"], [resolved["line"]])

        # bbox option (geocode.js options.bbox; AM-crossing supported):
        # drop features whose center falls outside the requested box
        if bbox is not None:
            from ..util.bbox import am_inside

            if not am_inside((float(feature.center_lon), float(feature.center_lat)), bbox):
                return False

        # stacks filter (R11). Corpora with per-feature
        # carmen:geocoder_stack use the reference semantics
        # (featureMatchesStacks + the context.js:44-67 worldview
        # override); stack-less corpora keep the documented
        # country-membership approximation (by country doc_id or name).
        if stacks:
            if index.has_feature_stacks:
                if not _feature_matches_stacks(feature, stacks):
                    # worldview override: when the BASE context element
                    # comes from a layer of a different worldview than
                    # the match and itself passes the stack filter, the
                    # match survives (context.js:48-67)
                    base = ctx[-1] if ctx else None
                    feat_wv = index.layer_worldview.get(str(feature.layer), "all")
                    base_wv = (index.layer_worldview.get(str(base.layer), "all")
                               if base is not None else None)
                    if (base is None or feat_wv == base_wv
                            or not _feature_matches_stacks(base, stacks)):
                        return False
            else:
                country = next((c for c in ctx if c.layer == "country"), None)
                if feature.layer == "country":
                    country = feature
                if country is None or (
                    country.doc_id not in stacks and str(country.text) not in stacks
                ):
                    return False

        # per-feature types check (featureMatchesTypes,
        # filter-sources.js:82-110): plain types match the feature's
        # carmen:types (default: its layer's type name); a feature
        # reached only via a "type.subtype" filter must fall in the
        # subtype's score range
        if plain_types or subtype_filters:
            ftypes = _feature_types(index, feature)
            ok = any(t in plain_types for t in ftypes)
            if not ok:
                for base, sub in subtype_filters:
                    rng_ = index.layer_scoreranges.get(
                        str(feature.layer), {}).get(sub)
                    if base in ftypes and rng_ is not None:
                        ms = index.layer_maxscore.get(
                            str(feature.layer), index.max_score)
                        lo_, hi_ = rng_[0] * ms, rng_[1] * ms
                        if lo_ <= float(feature.score) <= hi_:
                            ok = True
                            break
            if not ok:
                return False

        display, matched_lang = _display_text(feature, language)
        if not _lang_allows(feature, language, language_mode, index):
            # strict language mode drops features whose closest label's
            # language code isn't the requested/universal/equivalent one
            # (filter-sources.js:119-128 featureMatchesLanguage)
            return False
        # strict mode also drops non-matching entries from the rendered
        # context (format-features.js:74,211 getPlaceName/toFeature) —
        # only for formatting; relevance below still sees the full ctx
        if language_mode == "strict" and language:
            render_ctx = [c for c in ctx
                          if _lang_allows(c, language, language_mode, index)]
        else:
            render_ctx = ctx
        # type-memo walk over [feature]+context (stackFeatures): drives
        # the shifted extids of multityped features and drops context
        # entries whose every type is already taken. Plain corpora skip
        # the walk (doc ids pass through untouched).
        if index.multitype_active:
            fwd_chain = _stack_chain(index, [feature] + render_ctx)
            feat_type = fwd_chain[0][1]
            render_ctx = [f for f, _ in fwd_chain[1:]]
            ctx_ids = [_extid(index, f, t) for f, t in fwd_chain[1:]]
        else:
            feat_type = str(feature.layer)
            ctx_ids = [c.doc_id for c in render_ctx]
        # override:{type} context replacement (R10, verifymatch.js:597-631):
        # the result feature's authored override text supersedes the
        # recalled context element of that layer
        overrides = {}
        ojson = getattr(feature, "overrides_json", "") or ""
        if ojson:
            overrides = json.loads(ojson)
        ctx_names = []
        for c in render_ctx:
            if c.layer in overrides and str(c.text) != overrides[c.layer]:
                ctx_names.append(overrides[c.layer])
            else:
                ctx_names.append(_display_text(c, language)[0])
        _ffmt = render_feature_format(
            index, feature, display, render_ctx, ctx_names,
            matched_address, matched_lang or language)
        if _ffmt is not None:
            place_name = _ffmt
        elif index.config is not None and (index.config.place_format
                                           or index.config.place_formats):
            place_name = index.config.render_place_name(
                display, ctx_names, matched_address, language=matched_lang)
        else:
            name_prefix = f"{matched_address} " if matched_address else ""
            place_name = name_prefix + ", ".join([display] + ctx_names)
        # matching_text: the indexed synonym/translation that matched,
        # when it differs from the display form (getMatchingText,
        # format-features.js:383-488)
        # matching_text via the stored source-phrase hash
        # (getMatchingText, format-features.js:383-488)
        matching_text, matching_language = get_matching_text(
            index, feature, covers[0].grid.phash, language,
            covers[0].pm.subquery, matched_lang, display)

        def _render_name(disp_i, ctx_names_i, ml_i):
            ffmt = render_feature_format(
                index, feature, disp_i, render_ctx, ctx_names_i,
                matched_address, ml_i or language)
            if ffmt is not None:
                return ffmt
            if index.config is not None and (index.config.place_format
                                             or index.config.place_formats):
                return index.config.render_place_name(
                    disp_i, ctx_names_i, matched_address, language=ml_i)
            pre = f"{matched_address} " if matched_address else ""
            return pre + ", ".join([disp_i] + ctx_names_i)

        # matching_place_name (format-features.js:428-439 toFeature):
        # the primary place name re-rendered with the matched synonym
        # as the display element
        matching_place_name = None
        if matching_text:
            matching_place_name = _render_name(
                matching_text, ctx_names, matched_lang)

        # multi-language output (toFeature's languages.reduce,
        # format-features.js:~200): text_{lc} / language_{lc} /
        # place_name_{lc} per requested code; unsuffixed fields carry
        # the first language (the multilanguage acceptance). A fused
        # per-call surface — the staged batch pipeline's output schema
        # is fixed and language-less.
        lang_fields: dict = {}
        for i_l, lc in enumerate(languages):
            if i_l == 0:
                disp_i, ml_i, pn_i = display, matched_lang, place_name
            else:
                disp_i, ml_i = _display_text(feature, lc)
                ctx_names_i = []
                for c in render_ctx:
                    if c.layer in overrides \
                            and str(c.text) != overrides[c.layer]:
                        ctx_names_i.append(overrides[c.layer])
                    else:
                        ctx_names_i.append(_display_text(c, lc)[0])
                pn_i = _render_name(disp_i, ctx_names_i, ml_i)
            lang_fields[f"text_{lc}"] = disp_i
            if ml_i:
                lang_fields[f"language_{lc}"] = ml_i.replace("_", "-")
            lang_fields[f"place_name_{lc}"] = pn_i

        ghost = float(feature.score) < 0
        relevance = _direction_effects(
            covers, st.relev, frozenset(index.ignore_order_layers),
            address_order=index.layer_address_order.get(
                str(feature.layer), "ascending"))
        # near-miss covers (same index, different feature) → half credit;
        # fully unmatched covers → none (verifymatch context-walk)
        relevance += _close_but_no_cigar(covers, top.grid.tmpid, ctx,
                                         ctx_strict_masks=q_cover_masks)
        # context squishy (+0.01, verifymatch.js:966-975): an unmatched
        # context element doubling the name of a matched inherit-score
        # context element ("main st new york new york") nudges relevance
        matched_tmpids = q_matched_tmpids
        squishy_ctx_target = None
        for c in ctx:
            ctmp = int(c.idx) * TMPID_SHIFT + int(c.fid)
            if ctmp in matched_tmpids and c.layer in index.inherit_score_layers:
                squishy_ctx_target = str(c.text).lower()
                break
        if squishy_ctx_target is not None:
            for c in ctx:
                ctmp = int(c.idx) * TMPID_SHIFT + int(c.fid)
                if ctmp not in matched_tmpids and c.layer in index.grant_score_layers                         and str(c.text).lower() == squishy_ctx_target:
                    relevance += 0.01
                    break
        if addr_state is False:
            # cluster/range present but the queried number missed —
            # street-fallback penalty (verifymatch.js:489-492:
            # carmen:address === false → cover.relev *= 0.99)
            relevance *= 0.99
        relevance = round_to(relevance, 6)
        scoredist = top.grid.scoredist
        # address-resolved results measure proximity from the RESOLVED
        # point, not the feature center/grid (verifymatch.js:450,483:
        # the addressFeat clone's carmen:center is the point and
        # carmen:distance derives from it) — the address-omitted
        # acceptance's close-prox ordering depends on this
        dist_val = top.grid.distance
        if proximity is not None and resolved is not None:
            dist_val = float(prox.distance(
                (float(proximity[0]), float(proximity[1])),
                (resolved["lon"], resolved["lat"]),
                top.grid.x, top.grid.y, int(top.pm.zoom)))
            scoredist = float(prox.scoredist(
                float(feature.score), index.min_score, index.max_score,
                dist_val, int(feature.zoom),
                radius=index.layer_coalesce_radius.get(str(feature.layer))))

        # partial-number matches from address indexes get an artificial
        # scoredist boost so they can surface (spatialmatch.js:198-204)
        if any(e.pm.partial_number for e in covers):
            scoredist *= 300

        # per-feature proximity_radius override (proximity.js:95-132
        # `radius` param; F2 schema column)
        feat_radius = float(getattr(feature, "proximity_radius", 0.0) or 0.0) or None
        if proximity is not None and feat_radius:
            scoredist = float(prox.scoredist(
                float(feature.score), index.min_score, index.max_score,
                dist_val, int(feature.zoom), radius=feat_radius))

        # squishy: identically-named matched parent grants its score
        squishy = _squishy_boost(index, feature, ctx, matched_tmpids)
        if squishy > 0:
            boosted = min(float(feature.score) + squishy, index.max_score)
            if proximity is not None:
                scoredist = float(prox.scoredist(
                    boosted, index.min_score, index.max_score,
                    dist_val, int(feature.zoom), radius=feat_radius))
            else:
                scoredist = scoredist + squishy
        # carmen's null-address composite penalty applies to carmen:
        # address === null only — a False (street-fallback) state took
        # the ×0.99 relev hit instead (proximity.js:212-222)
        composite = prox.relevance_score(
            relevance, scoredist if proximity else 1.0,
            address=(matched_address
                     if addr_number is not None and addr_state is not False
                     else "n/a"),
            ghost=ghost)
        if resolved:
            lon, lat = resolved["lon"], resolved["lat"]
        else:
            lon, lat = float(feature.center_lon), float(feature.center_lat)
        candidate = {
            "feature_id": _extid(index, feature, feat_type),
            "relevance": relevance,
            "composite": composite,
            "place_name": place_name,
            "center_lon": lon,
            "center_lat": lat,
            "zoom": int(feature.zoom),  # cells derived after the limit
            "context": ctx_ids,
            "score": float(feature.score),
            "scoredist": float(scoredist),
            "idx": int(feature.idx),
            "fid": int(feature.fid),
            "address": matched_address,
            "routable_lon": routable[0] if routable else None,
            "routable_lat": routable[1] if routable else None,
            "matching_text": matching_text,
            "matching_language": matching_language,
            "matching_place_name": matching_place_name,
            "language": matched_lang,
            "text": display,  # toFeature memo.text (first language)
            **lang_fields,
            "place_name": place_name,
            # omitted/interpolated feed the final sort demotion and the
            # dedupe non-omitted/non-interpolated preference
            # (verifymatch.js:990,1015-1024; format-features.js:268-285)
            "omitted": (bool(resolved.get("omitted")) if resolved
                        else bool(getattr(feature, "omitted", False))),
            "interpolated": bool(resolved and resolved.get("line") is not None),
            "addr_key": _addr_dedupe_key(index, feature, covers, ctx),
            "position": si,
            "properties": feature_user_props(
                feature, resolved.get("pt_index") if resolved else None),
        }
        fbbox = index.feature_bbox_am(frow, feature)
        candidate["bbox_w"], candidate["bbox_s"], candidate["bbox_e"], \
            candidate["bbox_n"] = fbbox if fbbox else (None, None, None, None)
        # a duplicated house number inside one cluster yields several
        # result points (addresscluster.js forward returns every
        # best-rank hit; duplicate-address acceptance) — clones of the
        # primary candidate differing only in the resolved point
        group = [candidate]
        for rp in resolved_pts[1:]:
            c = dict(candidate)
            c["center_lon"], c["center_lat"] = rp["lon"], rp["lat"]
            c["properties"] = feature_user_props(
                feature, rp.get("pt_index"))
            if rp["address"] != matched_address:
                c["address"] = rp["address"]
            if proximity is not None:
                # each extra point carries its own distance-derived
                # scoredist/composite (carmen's addressFeat clones each
                # recompute carmen:distance from their own center)
                rd_ = float(prox.distance(
                    (float(proximity[0]), float(proximity[1])),
                    (rp["lon"], rp["lat"]),
                    top.grid.x, top.grid.y, int(top.pm.zoom)))
                c["scoredist"] = float(prox.scoredist(
                    float(feature.score), index.min_score, index.max_score,
                    rd_, int(feature.zoom),
                    radius=(feat_radius or index.layer_coalesce_radius.get(
                        str(feature.layer)))))
                c["composite"] = prox.relevance_score(
                    relevance, c["scoredist"],
                    address=(rp["address"]
                             if addr_number is not None
                             and addr_state is not False else "n/a"),
                    ghost=ghost)
            group.append(c)
        prev = best_by_tmpid.get(top.grid.tmpid)
        if prev is None or (candidate["relevance"], candidate["composite"]) > (
                prev[0]["relevance"], prev[0]["composite"]):
            best_by_tmpid[top.grid.tmpid] = group
        return True

    # chunked verify with backfill + early stop (verifymatch.js:85-227):
    # candidates beyond the first chunk are verified only while slots
    # remain, never below the first verified relev tier, never past
    # VERIFYMATCH_MAX_FEATURES_LIMIT loads
    ledger = cand_stacks[: constants.VERIFYMATCH_MAX_FEATURES_LIMIT]
    planner = ChunkedVerifyPlanner(
        [s_.penalized for s_ in ledger],  # spatialmatch (gap-included) relev
        # entries, not covers(): the partial flag is order-independent
        # and covers() sorts per call
        [any(e.pm.partial_number for e in s_.entries) for s_ in ledger],
        stack_limit=verifymatch_stack_limit)
    while True:
        ci = planner.next_candidate()
        if ci is None:
            break
        planner.record(_verify_stack(ledger[ci], ci))
    if _stats is not None:
        _stats["candidates_total"] = len(ledger)
        _stats["candidates_verified"] = planner.seen

    # place-name dedup (D2) + uniqueAddressId dedup with the
    # non-omitted / non-interpolated replacement preference
    # (format-features.js:252-291,320-374)
    all_cands = [c for g in best_by_tmpid.values() for c in g]
    all_cands.sort(key=_result_sort_key)
    results = []
    seen_keys: dict[str, int] = {}
    for cand in all_cands:
        if allow_dupes:
            results.append(cand)
            continue
        keys = [cand["place_name"]]
        if cand["addr_key"]:
            keys.append(cand["addr_key"])
        prev_i = next((seen_keys[k] for k in keys if k in seen_keys), None)
        if prev_i is not None:
            prev = results[prev_i]
            if prev["address"] and not cand["address"]:
                pass  # a street fallback never replaces an address hit
            elif prev["omitted"] and not cand["omitted"]:
                results[prev_i] = cand
            elif prev["interpolated"] and not cand["interpolated"]:
                results[prev_i] = cand
            continue
        for k in keys:
            seen_keys[k] = len(results)
        results.append(cand)

    # ghost-vs-scored text dedup (D3, verifymatch.js:659-672) — order
    # dependent: walking the relevance-sorted list, a ghost survives
    # unless a BETTER-ranked scored feature with identical text already
    # passed (the score-dedupe acceptance: a spatially-aligned ghost at
    # rank 0 must not be evicted by its lower-ranked scored twin)
    scored_texts: set[str] = set()
    deduped = []
    for r in results:
        text = r["place_name"].split(",")[0].strip().lower()
        if r["score"] >= 0 or text not in scored_texts:
            deduped.append(r)
            if r["score"] >= 0:
                scored_texts.add(text)
    results = deduped

    # final deterministic sort (verifymatch.js:1003-1053 shape)
    results.sort(key=_result_sort_key)
    results = results[:limit]
    # cell assignment only for the rows that survive the limit — h3/s2
    # per candidate was ~30% of verify time at 10× corpus scale
    for rank, r in enumerate(results):
        r["rank"] = rank
        # output clamp AFTER the sort (verifymatch.js:295,312): a
        # squishy-nudged 1.01 outranks 1.0 but displays as 1
        if r["relevance"] > 1.0:
            r["relevance"] = 1.0
        attach_cells(r)
    return results


def attach_cells(r: dict) -> None:
    """Derive cell_zxy + H3 (r7-r9) + S2 columns from center/zoom."""
    lon, lat, zoom = r["center_lon"], r["center_lat"], r.pop("zoom")
    tx, ty = lonlat_to_tile(lon, lat, zoom)
    r["cell_zxy"] = f"{zoom}/{int(tx)}/{int(ty)}"
    r["h3_r7"] = hex_cell(lon, lat, 7)
    r["h3_r8"] = hex_cell(lon, lat, 8)
    r["h3_r9"] = hex_cell(lon, lat, 9)
    r["s2_cell"] = s2_cell(lon, lat, 12)


def reverse_multi(index: IndexData, lon: float, lat: float, limit: int,
                  types: list[str] | None = None,
                  language: str | None = None,
                  language_mode: str | None = None,
                  worldview: str | None = None) -> list[dict]:
    """Multi-result reverse (J5, context.js:269-304 `nearest`): kNN over
    one TYPE — candidate gen over the worldview's layers of that type →
    sort by distscore → limit, each hit expanded to a full context
    result. (Features multityped INTO the requested type via
    carmen:types are out of scope here, as in the reference's
    bytype-driven nearest.)"""
    sub = None
    if types:
        wanted = types[0]
        if "." in wanted:
            # 'poi.landmark': base type selects the layers, the subtype
            # imposes each source's score range (context.js:104-113)
            wanted, sub = wanted.split(".", 1)
    else:
        last = index.layers[-1] if index.layers else ""
        wanted = index.layer_type.get(last, last)
    from ..util.bbox import am_inside as _am_inside

    # a source participates in nearest only when the query point falls
    # inside its bounds (context.js:279-281) — a far-away index never
    # backfills the kNN page
    cand_layers = [l for l in index.layers
                   if index.layer_type.get(l, l) == wanted
                   and _layer_in_worldview(index, l, worldview)
                   and (l not in index.layer_bounds
                        or _am_inside((lon, lat),
                                      list(index.layer_bounds[l])))]
    layer_ranges: dict[str, tuple[float, float] | None] = {}
    for l in cand_layers:
        rng = index.layer_scoreranges.get(l, {}).get(sub) if sub else None
        if rng is not None:
            ms = index.layer_maxscore.get(l, index.max_score)
            layer_ranges[l] = (rng[0] * ms, rng[1] * ms)
        else:
            layer_ranges[l] = None
    layer_set = (np.concatenate([index.layer_rows[l] for l in cand_layers])
                 if cand_layers else np.array([], dtype=np.int64))
    f = index._f
    # expanding cell-ring candidate generation (no full-layer scan):
    # grow the ring until the best possible distscore of any unseen
    # feature (score ≤ max_score at the ring's minimum distance) can't
    # beat the current k-th best — distscore shrinks with distance, so
    # the bound is monotone in the ring radius.
    import math as _m

    cell_w_miles = (
        2 * _m.pi * 3958.761316 * _m.cos(_m.radians(min(abs(lat), 85.0511)))
        / (2 ** index.cell_zoom))
    layer_mask_set = set(int(r) for r in layer_set)
    cands: list[tuple[float, float, int]] = []
    seen_rows: set[int] = set()
    ring = 1
    max_ring = int(2 ** index.cell_zoom)
    while True:
        for r in index.cell_candidates(lon, lat, ring=ring):
            r = int(r)
            if r in seen_rows or r not in layer_mask_set:
                continue
            seen_rows.add(r)
            if sub is not None:
                srange = layer_ranges.get(str(f["layer"][r]))
                if srange is not None and not (
                        srange[0] <= float(f["score"][r]) <= srange[1]):
                    continue
            geom = index.geometry_at(r)
            d = dist_point_to_geom_miles(lon, lat, geom)
            ds_ = float(prox.distscore(d * 1609.344, max(float(f["score"][r]), 0.1)))
            cands.append((d, -ds_, r))
        if len(seen_rows) >= len(layer_mask_set):
            break
        cands.sort()
        if len(cands) >= limit * 2:
            # the scan below keeps the nearest limit*2 by distance; any
            # feature outside the ring is ≥ (ring−1) cell-widths away
            d_min = max(ring - 1, 0) * cell_w_miles
            kth_d = cands[limit * 2 - 1][0]
            if d_min > kth_d:
                break
        ring *= 2
        if ring > max_ring:
            break
    cands.sort()
    out = []
    seen: set[str] = set()
    for d, neg_ds, r in cands[: limit * 2]:
        feature = index.feature_at(r)
        if feature.doc_id in seen:  # D4 dedup by tmpid
            continue
        seen.add(feature.doc_id)
        if not _lang_allows(feature, language, language_mode, index):
            continue  # strict language filter (filter-sources.js:119)
        ctx = _context_for(index, r, int(feature.idx), worldview=worldview)
        if language_mode == "strict" and language:
            ctx = [c for c in ctx
                   if _lang_allows(c, language, language_mode, index)]
        zoom = int(feature.zoom)
        flon, flat = float(feature.center_lon), float(feature.center_lat)
        address = None
        snapped = reverse_address_snap(feature, lon, lat)
        if snapped:
            flon, flat = snapped["lon"], snapped["lat"]
            address = snapped["address"]
        name_prefix = f"{address} " if address else ""
        tx, ty = lonlat_to_tile(flon, flat, zoom)
        display, matched_lang = _display_text(feature, language)
        out.append({
            "feature_id": _extid(index, feature, index.layer_type.get(
                str(feature.layer), str(feature.layer))),
            "relevance": 1.0,
            "language": matched_lang,
            "place_name": name_prefix + ", ".join(
                [display] + [_display_text(c, language)[0] for c in ctx]),
            "center_lon": flon, "center_lat": flat,
            "cell_zxy": f"{zoom}/{int(tx)}/{int(ty)}",
            "h3_r7": hex_cell(flon, flat, 7), "h3_r8": hex_cell(flon, flat, 8),
            "h3_r9": hex_cell(flon, flat, 9), "s2_cell": s2_cell(flon, flat, 12),
            "context": [c.doc_id for c in ctx],
            "score": float(feature.score), "scoredist": -neg_ds,
            "rank": len(out),
            "address": address, "routable_lon": None, "routable_lat": None,
            "properties": feature_user_props(
                feature, snapped.get("pt_index") if snapped else None),
        })
        if len(out) >= limit:
            break
    return out


def reverse_one(index: IndexData, lon: float, lat: float, limit: int = 1,
                types: list[str] | None = None,
                worldview: str | None = None,
                reverse_mode: str = "distance",
                language: str | None = None,
                language_mode: str | None = None,
                split_context: bool = False) -> list[dict]:
    """Reverse geocode: PIP + nearest per layer, stacked fine→coarse
    (context.js:31-136, nearest :269-304). Multi-result reverse requires
    an explicit single type (geocode.js:216-220); without one the limit
    clamps to 1 like the reference."""
    if reverse_mode not in ("distance", "score"):
        # geocode.js reverseMode validation (the reverse-scoredist
        # acceptance pins the message shape)
        raise ValueError(f"{reverse_mode} is not a valid reverseMode. "
                         "Must be one of: score, distance")
    if language_mode is not None and language_mode != "strict":
        raise ValueError(f"'{language_mode}' is not a valid language mode")
    if language:
        from ..text.closest_lang import has_language

        if not has_language(language):
            raise ValueError(f"'{language}' is not a valid language code")
    if types is not None:
        types = _validate_types(index, types)
    worldview = _resolve_worldview(index, worldview)
    if limit and limit > 1 and not (types and len(types) == 1):
        # geocode.js:216-220 (the limit acceptance pins the error)
        raise ValueError("limit must be combined with a single type "
                         "parameter when reverse geocoding")
    if limit and types and len(types) == 1:
        limit = min(int(limit), 5)  # geocode.js:217 reverse clamp
    if limit > 1 and types and len(types) == 1:
        return reverse_multi(index, lon, lat, limit, types,
                             language=language, language_mode=language_mode,
                             worldview=worldview)
    # getSubtypeLookup (context.js:148-167): base type → True (whole
    # type wanted) or the subtype name ('poi.landmark' → {'poi':
    # 'landmark'}); a plain entry for the same base overrides the
    # subtype (union semantics)
    subtype_of: dict[str, object] = {}
    allowed_layers: set | None = None
    if types:
        for t in types:
            parts = t.split(".", 1)
            if len(parts) == 2 and parts[0] not in subtype_of:
                subtype_of[parts[0]] = parts[1]
            else:
                subtype_of[parts[0]] = True
        # maxidx gating (geocode.js:232-242): context i/o runs over the
        # requested parent types AND every coarser index — coarser
        # layers still stack as context ('country,place' keeps region
        # inside place's context) even though they can't be the result
        parent = set(subtype_of)
        max_pos = -1
        for pos, l in enumerate(index.layers):
            if parent & set(index.layer_decl_types(l)):
                max_pos = pos
        allowed_layers = set(index.layers[: max_pos + 1])
    hits = []
    RADIUS_MILES = 1000.0 / 1609.344  # vtquery radius 1000 m
    f = index._f
    # cell-ring candidate generation (S7/ST3 wired): one probe of the
    # query point's 3×3 cell neighborhood replaces the per-layer scans;
    # ring=1 at cell_zoom=10 is a superset of the 1000 m radius at any
    # latitude (cells stay ≥3 km wide at the ±85° clamp)
    ring_rows = index.cell_candidates(lon, lat, ring=1)
    pad = 0.02
    rw = f["bbox_w"][ring_rows]
    re_ = f["bbox_e"][ring_rows]
    rs = f["bbox_s"][ring_rows]
    rn = f["bbox_n"][ring_rows]
    near = ring_rows[(rw - pad <= lon) & (re_ + pad >= lon)
                     & (rs - pad <= lat) & (rn + pad >= lat)]
    near_layers = f["layer"][near]
    for layer in index.layers:
        # types gate: with multityped features the layer must still be
        # scanned (carmen queries every worldview index and filters per
        # feature in stackFeatures, context.js:186-207); otherwise the
        # legacy fast skip by type name stands
        ltype = index.layer_type.get(layer, layer)
        if allowed_layers is not None and not index.has_feature_types \
                and layer not in allowed_layers:
            continue
        if not _layer_in_worldview(index, layer, worldview):
            continue
        # subtype score range (context.js:104-113): filtering on the
        # parent type with a scoreranges entry on this source restricts
        # candidates to that range of the SOURCE's maxscore
        srange = None
        sub = subtype_of.get(ltype)
        if isinstance(sub, str):
            rng = index.layer_scoreranges.get(layer, {}).get(sub)
            if rng is not None:
                ms = index.layer_maxscore.get(layer, index.max_score)
                srange = (rng[0] * ms, rng[1] * ms)
        cand = near[near_layers == layer]
        if len(cand) == 0:
            continue
        cands = []
        for r in cand:
            if srange is not None and not (
                    srange[0] <= float(f["score"][r]) <= srange[1]):
                continue
            geom = index.geometry_at(int(r))
            is_poly = geom["type"] in ("Polygon", "MultiPolygon", "GeometryCollection")
            if is_poly and point_in_geom(lon, lat, geom):
                d = 0.0
            else:
                d = dist_point_to_geom_miles(lon, lat, geom)
                if d > RADIUS_MILES:
                    continue
            # centroid distance: overlapping same-layer polygons both
            # contain the point at d=0 — the closer CENTROID wins
            # (geocode-unit.geocoder_type 'Overlapping places')
            cd = float(prox.haversine_miles(
                lon, lat, float(f["center_lon"][r]), float(f["center_lat"][r])))
            cands.append((d, float(f["score"][r]), int(r), is_poly, cd))
        if not cands:
            continue
        best = None
        if reverse_mode == "score" and layer in index.reverse_mode_layers:
            # score mode (context.js:456-472 + the memo scan :217-238):
            # candidates ordered by distscore, then a closer feature
            # bumps the pick only when it is also strictly higher-scored
            # (ghosts never bump a scored pick); no basic score filter —
            # vtquery runs unfiltered with limit 100 in this mode
            cands.sort(key=lambda c: (
                -float(prox.distscore(c[0] * 1609.344, max(c[1], 0.1))),
                c[0], c[2]))
            memo = cands[0]
            for d, score, r, is_poly, cd in cands[1:]:
                if is_poly:  # a polygon never bumps a stacked pick
                    continue
                if not score > 0 and memo[1] > 0:
                    continue
                if score > 0 and memo[1] > 0 and memo[1] >= score:
                    continue
                if d >= memo[0]:
                    continue
                memo = (d, score, r, is_poly, cd)
            best = memo
        else:
            # distance mode (context.js:595-608): ghosts are excluded by
            # the basic score>=0 filter; nearest wins, PIP hits at d=0
            # tie-broken by CENTROID distance (overlapping polygons both
            # contain the point), then row for stability
            scored = [c for c in cands if c[1] >= 0]
            if not scored:
                continue
            scored.sort(key=lambda c: (c[0], c[4], c[2]))
            best = scored[0]
        if best is not None:
            hits.append((index.feature_at(best[2]), float(best[0]),
                         bool(best[3])))

    # languageMode=strict drops chain entries without the language
    # (filter-sources featureMatchesLanguage; reverse geocode-unit
    # languageMode fixtures)
    if language_mode == "strict" and language:
        hits = [h for h in hits
                if _lang_allows(h[0], language, language_mode, index)]
    if not hits:
        return []
    hits.sort(key=lambda r: -int(r[0].idx))  # finest first
    # stackFeatures (context.js:175-255): one feature per TYPE, the
    # requested-types filter applies only before the first kept feature
    # (multityped features pass via ANY wanted carmen:type and take a
    # type-shifted extid — geocode-unit.multitype-reverse); same-name
    # different-type sources conflict, closest non-polygon wins
    chain = _stack_chain(index, [h[0] for h in hits], types=types,
                         dists=[h[1] for h in hits],
                         polys=[h[2] for h in hits],
                         reverse_mode=reverse_mode)
    if not chain:
        return []
    out = []
    # split_context=True is the reference response shape
    # (geocode.js:299-309): the chain explodes into one feature per
    # element, each with the coarser tail as its context, filtered by
    # featureAllowed; the default single-row form is the engine's batch
    # contract (constant row count per query; chain in the context col)
    tops = range(len(chain)) if split_context else range(min(limit, 1))
    for i in tops:
        top, top_type = chain[i]
        if split_context and types and not _feature_allowed_types(
                index, top, types):
            # featureAllowed on each split's top (format-features.js:260)
            continue
        ctx_rows = [f for f, _ in chain[i + 1:]]
        ctx_ids = [_extid(index, f, t) for f, t in chain[i + 1:]]
        # reverse address snap (context.js:694-716): the top hit of an
        # address feature resolves to the snapped cluster/ITP point
        snapped = reverse_address_snap(top, lon, lat)
        out_lon, out_lat = float(top.center_lon), float(top.center_lat)
        address = None
        if snapped:
            out_lon, out_lat = snapped["lon"], snapped["lat"]
            address = snapped["address"]
        name_prefix = f"{address} " if address else ""
        display, matched_lang = _display_text(top, language)
        place_name = name_prefix + ", ".join(
            [display] + [_display_text(c, language)[0] for c in ctx_rows])
        zoom = int(top.zoom)
        tx, ty = lonlat_to_tile(out_lon, out_lat, zoom)
        out.append({
            "feature_id": _extid(index, top, top_type),
            "relevance": 1.0,
            "place_name": place_name,
            "center_lon": out_lon,
            "center_lat": out_lat,
            "cell_zxy": f"{zoom}/{int(tx)}/{int(ty)}",
            "h3_r7": hex_cell(out_lon, out_lat, 7),
            "h3_r8": hex_cell(out_lon, out_lat, 8),
            "h3_r9": hex_cell(out_lon, out_lat, 9),
            "s2_cell": s2_cell(out_lon, out_lat, 12),
            "context": ctx_ids,
            "score": float(top.score),
            "scoredist": 0.0,
            "rank": len(out),
            "address": address,
            "language": matched_lang,
            "properties": feature_user_props(
                top, snapped.get("pt_index") if snapped else None),
        })
    return out


def _cluster_reverse(feature, lon: float, lat: float) -> dict | None:
    """Nearest address-cluster point to the query
    (addresscluster.js reverse:228-273)."""
    anj = feature.addr_numbers_json
    if not anj:
        return None
    nums = json.loads(anj)
    geom = json.loads(feature.geometry_json)
    coords = _addr_cluster_coords(geom)
    if not coords or not nums:
        return None
    arr = np.asarray(coords, dtype=np.float64)
    d = np.asarray(prox.haversine_miles(lon, lat, arr[:, 0], arr[:, 1]))
    i = int(np.argmin(d))
    if i >= len(nums):
        return None
    return {"address": str(nums[i]), "lon": float(arr[i, 0]),
            "lat": float(arr[i, 1]), "distance": float(d[i]),
            "pt_index": i}


def _det2d(sx, sy, ex, ey, qx, qy) -> float:
    return (ex - sx) * (qy - sy) - (ey - sy) * (qx - sx)


def _itp_reverse(feature, lon: float, lat: float) -> dict | None:
    """Reverse TIGER-range interpolation (addressitp.js reverse:178-268):
    snap to the nearest point on the range lines, pick the street side
    by the 2D determinant, interpolate the housenumber along the line
    with parity rounding."""
    arj = feature.addr_range_json
    if not arj:
        return None
    rng = json.loads(arj)
    geom = json.loads(feature.geometry_json)
    lines = _addr_lines(geom)

    best = None  # (dist, line_idx, seg_idx, t, px, py)
    for mi, line in enumerate(lines):
        for si in range(len(line) - 1):
            (x1, y1), (x2, y2) = line[si], line[si + 1]
            dx, dy = x2 - x1, y2 - y1
            L2 = dx * dx + dy * dy
            t = 0.0 if L2 == 0 else max(0.0, min(1.0, ((lon - x1) * dx + (lat - y1) * dy) / L2))
            px, py = x1 + t * dx, y1 + t * dy
            d = float(prox.haversine_miles(lon, lat, px, py))
            if best is None or d < best[0]:
                best = (d, mi, si, t, px, py)
    if best is None:
        return None
    d, mi, si, t, px, py = best
    line = lines[mi]

    # travelled fraction along the whole line (planar lengths — the
    # ratio is what matters, addressitp.js matchSide distRatio)
    seg_len = [float(np.hypot(line[i + 1][0] - line[i][0], line[i + 1][1] - line[i][1]))
               for i in range(len(line) - 1)]
    total = sum(seg_len) or 1.0
    travelled = sum(seg_len[:si]) + seg_len[si] * t

    side = "left" if _det2d(line[si][0], line[si][1], line[si + 1][0],
                            line[si + 1][1], lon, lat) >= 0 else "right"

    def side_range(side_key: str):
        s0 = side_key[0]  # 'l'/'r'
        frs = rng.get(f"{s0}fromhn") or []
        tos = rng.get(f"{s0}tohn") or []
        pars = rng.get(f"parity{s0}") or []
        if mi < len(frs) and frs[mi] and mi < len(tos) and tos[mi]:
            fr, to = int(frs[mi][0]), int(tos[mi][0])
            parity = (pars[mi][0] if mi < len(pars) and pars[mi] else "B")
            return fr, to, parity
        return None

    def match_side(side_key: str, strict: bool = False):
        r = side_range(side_key)
        if r is None:
            if strict:
                return None
            return match_side("right" if side_key == "left" else "left", True)
        fr, to, parity = r
        ratio = travelled / total
        num = fr + (to - fr) * ratio
        if parity == "O":
            num = round((num + 1) / 2) * 2 - 1
        elif parity == "E":
            num = round(num / 2) * 2
        else:
            num = round(num)
        return int(num)

    num = match_side(side)
    return {"address": str(num) if num is not None else None,
            "lon": px, "lat": py, "distance": d}


def reverse_address_snap(feature, lon: float, lat: float) -> dict | None:
    """Snap a reverse query onto an address feature: cluster point vs
    ITP range with the reference's 200 m tiebreak (context.js:694-716 —
    ITP wins only when closer AND >0.2 km from the cluster point)."""
    addrpt = _cluster_reverse(feature, lon, lat)
    addritp = _itp_reverse(feature, lon, lat)
    if addrpt and addritp:
        d_between = float(prox.haversine_miles(
            addrpt["lon"], addrpt["lat"], addritp["lon"], addritp["lat"]))
        KM02_MILES = 0.2 / 1.609344
        if addritp["distance"] < addrpt["distance"] and d_between > KM02_MILES:
            return addritp
        return addrpt
    return addrpt or addritp


def hydrate_one(index: IndexData, row: int) -> list[dict]:
    """Direct feature fetch for id queries (geocode.js:150-151,168-204):
    format the addressed feature itself. Never re-ranks through forward
    search, so an id query can't come back as a different feature that
    happens to share the name (VERDICT r1 'What's wrong' #3). idGeocode
    calls toFeature([feature]) with NO context chain — 'place.1' renders
    'chicago', not 'chicago, china' (the byid acceptance)."""
    feature = index.feature_at(row)
    ctx: list = []
    display, matched_lang = _display_text(feature, None)
    if index.config is not None and index.config.place_format:
        place_name = index.config.render_place_name(display, [], None)
    else:
        place_name = display
    lon, lat = float(feature.center_lon), float(feature.center_lat)
    zoom = int(feature.zoom)
    tx, ty = lonlat_to_tile(lon, lat, zoom)
    return [{
        "feature_id": feature.doc_id,
        "relevance": 1.0,
        "place_name": place_name,
        "center_lon": lon, "center_lat": lat,
        "cell_zxy": f"{zoom}/{int(tx)}/{int(ty)}",
        "h3_r7": hex_cell(lon, lat, 7), "h3_r8": hex_cell(lon, lat, 8),
        "h3_r9": hex_cell(lon, lat, 9), "s2_cell": s2_cell(lon, lat, 12),
        "context": [c.doc_id for c in ctx],
        "score": float(feature.score),
        "scoredist": 0.0,
        "rank": 0,
        "address": None, "routable_lon": None, "routable_lat": None,
        "matching_text": None, "language": matched_lang,
    }]


RESULT_FIELDS = [
    ("query_id", pa.string()), ("rank", pa.int32()), ("feature_id", pa.string()),
    ("relevance", pa.float64()), ("place_name", pa.string()),
    ("center_lon", pa.float64()), ("center_lat", pa.float64()),
    ("cell_zxy", pa.string()), ("h3_r7", pa.uint64()), ("h3_r8", pa.uint64()),
    ("h3_r9", pa.uint64()), ("s2_cell", pa.uint64()),
    ("context", pa.list_(pa.string())), ("score", pa.float64()),
    ("scoredist", pa.float64()), ("address", pa.string()),
    ("routable_lon", pa.float64()), ("routable_lat", pa.float64()),
    ("matching_text", pa.string()), ("matching_language", pa.string()),
    ("language", pa.string()),
    # W,S,E,N scalars; W > E when the feature straddles the
    # antimeridian (bbox.js crossAntimeridian); null for point features
    ("bbox_w", pa.float64()), ("bbox_s", pa.float64()),
    ("bbox_e", pa.float64()), ("bbox_n", pa.float64()),
]
RESULT_SCHEMA = pa.schema(RESULT_FIELDS)


class ForwardGeocoder:
    """Actor-pool stage: batch of query rows → result rows.

    Constructor receives the index tables (Ray ships them to each actor
    once — the broadcast join), or an `index_dir` so each actor loads
    the compact index from the partitioned parquet layout itself and
    nothing index-sized transits the driver. This is the COMPACT path
    (whole index per actor) used when the index fits a worker —
    reverse/id serving and small corpora; the sharded scale path is
    geocode/staged.py.
    """

    def __init__(self, features=None, phrase_grid=None, freq=None,
                 max_score=None, layer_zooms=None, config=None,
                 index_dir: str | None = None, reverse_only: bool = False):
        self.reverse_only = reverse_only
        if index_dir is not None:
            from ..index.build import (
                load_index_meta,
                read_feature_shard,
                read_phrase_shard,
            )

            # load only what this pool serves: the reverse/id pool never
            # touches the phrase/grid table, the frequency map or the
            # fuzzy delete maps — skipping them cuts per-actor spin-up,
            # which is pure Amdahl constant on short scaling legs. (The
            # media-cells table is never loaded here in either mode.)
            meta = load_index_meta(index_dir)
            features = read_feature_shard(index_dir)
            if "spans" in features.column_names:
                features = features.drop_columns(["spans"])
            if reverse_only:
                from .staged import empty_phrase_grid

                phrase_grid, freq = empty_phrase_grid(), {}
            else:
                phrase_grid = read_phrase_shard(index_dir)
                freq = meta["freq"]
            max_score = meta["max_score"]
            layer_zooms = meta["layer_zooms"]
        elif reverse_only:
            from .staged import empty_phrase_grid

            phrase_grid, freq = empty_phrase_grid(), {}
        self.index = IndexData(features, phrase_grid, freq, max_score, layer_zooms,
                               config=config, presorted=True)

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols = batch.column_names
        queries = batch["query"].to_pylist()
        qids = batch["query_id"].to_pylist() if "query_id" in cols else [str(i) for i in range(len(queries))]
        prox_lon = batch["proximity_lon"].to_pylist() if "proximity_lon" in cols else [None] * len(queries)
        prox_lat = batch["proximity_lat"].to_pylist() if "proximity_lat" in cols else [None] * len(queries)
        limits = batch["limit"].to_pylist() if "limit" in cols else [5] * len(queries)
        types_col = batch["types"].to_pylist() if "types" in cols else [None] * len(queries)
        lang_col = batch["language"].to_pylist() if "language" in cols else [None] * len(queries)
        lmode_col = batch["language_mode"].to_pylist() if "language_mode" in cols else [None] * len(queries)
        wv_col = batch["worldview"].to_pylist() if "worldview" in cols else [None] * len(queries)
        rvm_col = batch["reverse_mode"].to_pylist() if "reverse_mode" in cols else [None] * len(queries)

        rows = {name: [] for name, _ in RESULT_FIELDS}
        for qid, q, plon, plat, lim, qtypes, qlang, qlmode, qwv, qrvm in zip(
                qids, queries, prox_lon, prox_lat, limits, types_col, lang_col,
                lmode_col, wv_col, rvm_col):
            lim = int(lim) if lim is not None else 5
            idq = parse_id_query(q)
            rev = as_reverse(q)
            if idq is not None and idq[0] in self.index.layers:
                doc_id = f"{idq[0]}.{idq[1]}"
                row = self.index.doc_index.get(doc_id)
                results = hydrate_one(self.index, row) if row is not None else []
            elif rev is not None:
                if qrvm is not None and qrvm not in ("score", "distance"):
                    raise ValueError(
                        f"{qrvm} is not a valid reverseMode. Must be one "
                        "of: score, distance")
                # batch rows default limit=5 for forward; reverse
                # semantics take 1 unless a single type is given
                # (geocode.js:216-220 — the explicit-limit error stays
                # on the direct reverse_one surface)
                rlim = (lim if qtypes is not None and len(qtypes) == 1
                        else 1)
                results = reverse_one(self.index, rev[0], rev[1], limit=rlim,
                                      types=list(qtypes) if qtypes is not None and len(qtypes) else None,
                                      worldview=qwv,
                                      reverse_mode=qrvm or "distance",
                                      language=qlang, language_mode=qlmode)
            else:
                if self.reverse_only:
                    raise ValueError(
                        f"forward query {q!r} routed to a reverse/id-only "
                        "pool (constructed with reverse_only=True)")
                # both-or-neither, NaN-safe — same ingest normalization
                # as PhrasematchStage so both paths agree on malformed
                # half-set proximity rows
                p = ((plon, plat)
                     if plon is not None and plon == plon
                     and plat is not None and plat == plat else None)
                results = forward_one(self.index, q, proximity=p, limit=lim,
                                      types=list(qtypes) if qtypes is not None and len(qtypes) else None,
                                      language=qlang, language_mode=qlmode,
                                      worldview=qwv)
            for r in results:
                rows["query_id"].append(qid)
                for name, _ in RESULT_FIELDS[1:]:
                    rows[name].append(r.get(name))
        return pa.table({name: pa.array(rows[name], type=t) for name, t in RESULT_FIELDS})


def forward_geocode_ds(queries_ds, index=None, concurrency: int = 4, batch_size: int = 256,
                       config=None, index_dir: str | None = None,
                       reverse_only: bool = False):
    """queries Dataset → results Dataset via the fused actor pool.
    With index_dir, actors self-load from parquet (driver ships paths).
    reverse_only: the pool serves only reverse/id queries and skips
    loading the phrase/grid table and frequency map entirely."""
    if index_dir is not None:
        kwargs = {"index_dir": index_dir, "config": config,
                  "reverse_only": reverse_only}
    else:
        # the query actors never touch the spans payload — don't ship it
        feats = index.features
        if "spans" in feats.column_names:
            feats = feats.drop_columns(["spans"])
        kwargs = {
            "features": feats,
            "max_score": index.max_score,
            "layer_zooms": index.layer_zooms,
            "config": config,
            "reverse_only": reverse_only,
        }
        if not reverse_only:
            kwargs["phrase_grid"] = index.phrase_grid
            kwargs["freq"] = index.freq
    return queries_ds.map_batches(
        ForwardGeocoder,
        fn_constructor_kwargs=kwargs,
        batch_format="pyarrow",
        batch_size=batch_size,
        # autoscaling (1, n) pool: a fixed-size pool of n == num_cpus
        # actors starves the upstream repartition / downstream aggregate
        # tasks and deadlocks the streaming executor on small clusters.
        # num_cpus=0.5 keeps scheduler slots free for the map/shuffle
        # tasks even when several geocode pools coexist on few CPUs.
        concurrency=((max(1, concurrency // 2), concurrency)
                     if isinstance(concurrency, int) else concurrency),
        num_cpus=0.5,
    )
