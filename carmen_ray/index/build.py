"""Index build pipeline — the Ray shape of carmen's Geocoder.index()
(/root/reference/lib/indexer/index.js:30-97, indexdocs.js:43-89):

    read interleaved docs
      → map_batches(ParseDocs)            # spans → feature cols + covers (M8, M9)
      → fork:
        (a) term-frequency aggregate      # groupby(term).sum (ST5/A1), broadcast
        (b) map_batches(PhraseGen)        # M10-M12 + A5: (phrase, grid) rows
              → prefix-bin rank shuffle   # phrase_id assignment (S6)
        (c) feature table                 # S5, partitioned by hash(doc_id)
        (d) media cell table              # media spans → zxy/H3/S2 cells

phrase_id: carmen assigns dense lexicographic ranks at finish()
(lib/indexer/index.js:215-225). A global dense rank is a full-sort
bottleneck at 10^12 docs, so we use order-preserving sparse ids:
phrase_id = prefix_bin(first 2 bytes) << 40 | rank_within_bin — one
groupby(bin) shuffle, ids still lexicographically ordered so prefix
lookups are contiguous ranges (divergence from carmen's dense ids:
documented; all range semantics preserved; bins mirror carmen's
getPrefixBins(8192) sharding, index.js:221).

Frequency table: carmen approximates frequencies per 10k batch
(indexdocs.js:508-540); we compute them exactly with a global
aggregate, keeping only terms above a count floor as an explicit map
(rare terms get the default weight — same effect as carmen's
approximation, bounded memory at scale).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..geom import wkb as wkbmod
from ..geom.ops import center_of, geom_bbox
from ..geom.tile import cover, lonlat_to_tile, parse_zxy
from ..sources.synth import LAYER_IDX, LAYER_ZOOM
from ..text.termops import encode_3bit_log, get_indexable_phrases
from ..text.tokenize import normalize_query, tokenize
from ..util.hashing import fnv1a_64, phrase_hash

MAX_COVERS = 10000  # indexdocs.js:346-358 cap
_MAX_TEXT_SYNONYMS = 10  # constants.js MAX_TEXT_SYNONYMS (comma split cap)

# bit 0 = the default (untranslated) text; bit 127 = 'all'/universal —
# text that matches EVERY requested language (geocoder_universal_text
# layers and carmen:text_universal). Default text does NOT carry the
# universal bit: with a language flag it takes the cross-language
# penalty like any other mismatch (promote-language acceptance).
LANG_BITS = {"default": 0, "all": 127, "universal": 127}
UNMATCHED_LANG_BIT = 126  # languages past the 125-slot map
_LANG_LO_MASK = (1 << 64) - 1


def lang_bit(lang: str, lang_map: dict[str, int] | None = None) -> int:
    """Bit position 0..127 in the 128-bit language set
    (docs/index-structure.md:20). With a `lang_map` (assigned at index
    build from the distinct languages actually present, like carmen's
    per-index lang_map) bits are collision-free; without one, a hash
    fallback over 125 slots is used (test-scale convenience only)."""
    if lang in LANG_BITS:
        return LANG_BITS[lang]
    if lang_map is not None:
        i = lang_map.get(lang)
        return 1 + i if i is not None and i < 125 else UNMATCHED_LANG_BIT
    return 1 + (fnv1a_64(lang) % 125)


def build_lang_map(parsed_ds) -> dict[str, int]:
    """Distinct language codes across the corpus → sequential bit slots
    (a tiny distinct-aggregate: only unique codes reach the driver)."""
    def uniq(b: pa.Table) -> pa.Table:
        langs: set[str] = set()
        for lj in b["langs_json"].to_pylist():
            if lj:
                langs.update(json.loads(lj).keys())
        return pa.table({"lang": pa.array(sorted(langs), type=pa.string())})

    rows = parsed_ds.map_batches(uniq, batch_format="pyarrow").to_pandas()
    if "lang" not in rows.columns:
        return {}
    return {l: i for i, l in enumerate(sorted(set(rows["lang"])))}


# ------------------------------------------------------------ parse docs


def layer_meta_from_config(config) -> dict | None:
    """layer → (idx, zoom) from the config's declaration ORDER, the way
    carmen numbers indexes by constructor order (index.js:96-123).

    The built-in LAYER_IDX numbers are kept only when every declared
    layer is in that table AND the declaration order agrees with it
    (e.g. country, region, place, address). Otherwise — a layer outside
    the table (worldview-split sources like country_wv_us), or standard
    layers declared out of canonical order (postcode before place) —
    layers are numbered 0, 1, 2, … in declaration order, so a coarser-
    declared layer always carries the lower idx and stays in the
    context of the layers declared after it. An EXPLICIT per-layer zoom
    (carmen's maxzoom meta — geocode-unit.scoredist runs an address
    source at maxzoom 6) overrides the built-in zoom either way. None
    when the config declares no layers, or keeps both the built-in
    numbers and the built-in zooms (the pinned default path)."""
    layers = getattr(config, "layers", None) if config is not None else None
    if not layers:
        return None

    def _zoom(name, lc) -> int:
        z = getattr(lc, "zoom", None)
        return int(z) if z is not None else LAYER_ZOOM.get(name, 6)

    builtin = [LAYER_IDX.get(name) for name in layers]
    if None not in builtin and builtin == sorted(builtin):
        meta = {name: (LAYER_IDX[name], _zoom(name, lc))
                for name, lc in layers.items()}
        if all(z == LAYER_ZOOM.get(n, 6) for n, (_, z) in meta.items()):
            return None  # nothing overridden → pinned default path
        return meta
    return {name: (pos, _zoom(name, lc))
            for pos, (name, lc) in enumerate(layers.items())}


def parse_docs_batch(batch: pa.Table, layer_meta: dict | None = None) -> pa.Table:
    """spans → typed feature columns. Keeps the spans column verbatim so
    the span-sequence invariant survives every downstream projection."""
    doc_ids = batch["doc_id"].to_pylist()
    spans_col = batch["spans"].to_pylist()

    out = {
        "doc_id": [], "layer": [], "idx": [], "zoom": [], "fid": [],
        "text": [], "synonyms": [], "langs_json": [], "score": [],
        "center_lon": [], "center_lat": [], "geometry_json": [],
        "bbox_w": [], "bbox_s": [], "bbox_e": [], "bbox_n": [],
        "covers_x": [], "covers_y": [], "media_refs": [], "spans": [],
        "addr_numbers_json": [], "addr_range_json": [],
        "intersections_json": [], "proximity_radius": [], "overrides_json": [],
        "addr_style": [], "stack": [], "types_json": [], "omitted": [],
        "reverse_only": [], "formats_json": [],
        "props_json": [], "addressprops_json": [],
    }

    for doc_id, spans in zip(doc_ids, spans_col):
        if spans is None:
            spans = []
        layer = doc_id.split(".", 1)[0]
        if layer_meta is not None and layer in layer_meta:
            idx, zoom = layer_meta[layer]
        else:
            idx = LAYER_IDX.get(layer, len(LAYER_IDX))
            zoom = LAYER_ZOOM.get(layer, 6)
        try:
            fid = int(doc_id.split(".", 1)[1])
        except (IndexError, ValueError):
            fid = fnv1a_64(doc_id) % (1 << 20)

        text, synonyms, langs, score, media = "", [], {}, 0.0, []
        geom, center = None, None
        addr_numbers, addr_range = None, None
        addr_style = "standard"
        reverse_only = False
        formats: dict = {}
        props_json = ""
        addressprops_json = ""
        intersections = []
        prox_radius = 0.0
        overrides = {}
        stack = ""
        ftypes: list[str] = []
        for s in sorted(spans, key=lambda s: s["offset"]):
            k = s["kind"]
            if k == "text" and not text:
                text = s["text"]
            elif k == "synonym":
                synonyms.append(s["text"])
            elif k.startswith("lang:"):
                # carmen:text_{lc} language codes are validated at index
                # time (indexdocs; the localtext acceptance pins
                # "fake is an invalid language code")
                from ..text.closest_lang import has_language

                lc_ = k[5:]
                if not has_language(lc_):
                    raise ValueError(f"{lc_} is an invalid language code")
                langs[lc_] = s["text"]
            elif k == "geom":
                try:
                    geom = json.loads(s["text"])
                except (TypeError, ValueError):
                    geom = None  # malformed geometry → fall back to center/origin
            elif k == "center":
                try:
                    lon, lat = s["text"].split(",")
                    center = (float(lon), float(lat))
                except (TypeError, ValueError):
                    center = None
            elif k == "score":
                try:
                    score = float(s["text"])
                except (TypeError, ValueError):
                    score = 0.0
            elif k == "media":
                media.append(s["media_ref"])
            elif k == "addr_numbers":
                addr_numbers = s["text"].split(",")
            elif k == "addr_range":
                addr_range = json.loads(s["text"])
            elif k == "address_style":
                addr_style = s["text"] or "standard"
            elif k == "intersection":
                intersections.append(s["text"])
            elif k == "proximity_radius":
                prox_radius = float(s["text"])
            elif k == "stack":
                # carmen:geocoder_stack — a single string per feature
                # (indexdocs.js:187-188 rejects non-strings)
                stack = s["text"] or ""
            elif k == "types":
                # carmen:types multi-typing (comma-separated)
                ftypes = [t for t in s["text"].split(",") if t]
            elif k == "format" or k.startswith("format:"):
                # carmen:format / carmen:format_{lang} — per-feature
                # place_name templates (format-features.js:53-63
                # override the source format at render)
                fkey = "default" if k == "format" else k.split(":", 1)[1]
                formats[fkey] = s["text"]
            elif k == "props":
                # arbitrary user properties (whitelisted passthrough,
                # feature.js storableProperties)
                props_json = s["text"]
            elif k == "addressprops":
                # carmen:addressprops — per-cluster-point property
                # overrides keyed by point index (address-properties)
                addressprops_json = s["text"]
            elif k == "reverse_only":
                # carmen:reverse_only — indexed normally but never a
                # forward result (verifymatch.js:472 skips at hydrate)
                reverse_only = s["text"].lower() not in ("", "0", "false")
            elif k.startswith("override:"):
                overrides[k[len("override:"):]] = s["text"]

        if not text.strip() and not any(s.strip() for s in synonyms) \
                and not any(v.strip() for v in langs.values()):
            # whitespace-only text and no alternative names: the
            # reference skips indexing such docs entirely — they may
            # live in the VT but never load (the featurenoop
            # acceptance; indexdocs.js text checks)
            continue

        if geom is None and center is not None:
            geom = {"type": "Point", "coordinates": [center[0], center[1]]}
        if geom is None:
            geom = {"type": "Point", "coordinates": [0.0, 0.0]}
        if center is None:
            center = center_of(geom)
        bbox = geom_bbox(geom)
        covers = cover(geom, zoom, MAX_COVERS)

        out["doc_id"].append(doc_id)
        out["layer"].append(layer)
        out["idx"].append(idx)
        out["zoom"].append(zoom)
        out["fid"].append(fid % (1 << 20))
        out["text"].append(text)
        out["synonyms"].append(synonyms)
        # span (authoring) order preserved: closest-lang's scored-tie
        # break is the candidate enumeration order, like the reference's
        # stable sort over feature property order (languageFallback:
        # ar→ur wins over fa because text_ur is authored first)
        out["langs_json"].append(json.dumps(langs))
        out["score"].append(score)
        out["center_lon"].append(center[0])
        out["center_lat"].append(center[1])
        out["geometry_json"].append(json.dumps(geom))
        out["bbox_w"].append(bbox[0])
        out["bbox_s"].append(bbox[1])
        out["bbox_e"].append(bbox[2])
        out["bbox_n"].append(bbox[3])
        out["covers_x"].append([c[0] for c in covers])
        out["covers_y"].append([c[1] for c in covers])
        out["media_refs"].append(media)
        out["spans"].append(spans)
        out["addr_numbers_json"].append(json.dumps(addr_numbers) if addr_numbers else "")
        out["addr_range_json"].append(json.dumps(addr_range) if addr_range else "")
        out["intersections_json"].append(json.dumps(intersections) if intersections else "")
        out["proximity_radius"].append(prox_radius)
        out["overrides_json"].append(json.dumps(overrides, sort_keys=True) if overrides else "")
        out["addr_style"].append(addr_style)
        out["stack"].append(stack)
        out["types_json"].append(json.dumps(ftypes) if ftypes else "")
        # authored geometry.omitted (the duplicate-address acceptance;
        # verifymatch.js:990,1015-1024 sort demotion, format-features.js
        # :278 dedupe preference) — survives in geometry_json too, but a
        # bool column keeps the sort path off the JSON parser
        out["omitted"].append(bool(isinstance(geom, dict)
                                   and geom.get("omitted")))
        out["reverse_only"].append(reverse_only)
        out["formats_json"].append(
            json.dumps(formats, sort_keys=True) if formats else "")
        out["props_json"].append(props_json)
        out["addressprops_json"].append(addressprops_json)

    schema_overrides = {
        "idx": pa.int32(), "zoom": pa.int32(), "fid": pa.int64(),
        "synonyms": pa.list_(pa.string()),
        "covers_x": pa.list_(pa.int32()), "covers_y": pa.list_(pa.int32()),
        "media_refs": pa.list_(pa.string()),
    }
    arrays = {}
    for k, v in out.items():
        if k == "spans":
            arrays[k] = pa.array(v, type=batch.schema.field("spans").type)
        elif k in schema_overrides:
            arrays[k] = pa.array(v, type=schema_overrides[k])
        else:
            arrays[k] = pa.array(v)
    return pa.table(arrays)


# ------------------------------------------------------- term frequency


class TermRows:
    """Map-side partial term counts (one row per term per batch), over the
    same replaced-token space PhraseGen indexes."""

    def __init__(self, config=None):
        self.simple = config.build_replacers()[0] if config is not None else None

    def __call__(self, batch: pa.Table) -> pa.Table:
        counts: dict[str, int] = {}
        total = 0
        for text, syns in zip(batch["text"].to_pylist(), batch["synonyms"].to_pylist()):
            for t in [text] + list(syns or []):
                toks = normalize_query(tokenize(t)).tokens
                if self.simple:
                    toks = self.simple.replace(toks)
                for tok in toks:
                    counts[tok] = counts.get(tok, 0) + 1
                    total += 1
        counts["__COUNT__"] = total
        return pa.table({
            "term": pa.array(list(counts.keys()), type=pa.string()),
            "n": pa.array(list(counts.values()), type=pa.int64()),
        })


def term_rows(batch: pa.Table) -> pa.Table:
    return TermRows()(batch)


def build_frequency(parsed_ds, min_count: int = 1, max_terms: int = 200_000,
                    config=None) -> dict[str, int]:
    """Exact global frequency via partial + final aggregate; truncated to
    the `max_terms` most frequent (bounded broadcast at scale)."""
    from ..ops.agg import Spec, grouped_aggregate

    agg = grouped_aggregate(
        parsed_ds.map_batches(TermRows(config), batch_format="pyarrow"),
        ["term"], [Spec("n", "n", "sum")],
    )
    df = agg.to_pandas()
    if df.empty or "term" not in df.columns:
        return {"__COUNT__": 1}
    if len(df) > max_terms:
        df = df.nlargest(max_terms, "n")
    return {t: int(n) for t, n in zip(df["term"], df["n"]) if n >= min_count}


# ----------------------------------------------------------- phrase gen


class PhraseGen:
    """Stateful flat-map: feature rows → (phrase, grid) rows.

    The frequency map ships once per actor via constructor args. Emits
    one row per (indexable phrase × cover tile) with carmen's packed
    attributes: relev bucket, 3-bit score, (x, y), fid, phrase hash,
    lang bitset.
    """

    def __init__(self, freq: dict[str, int], max_score: float,
                 layer_zooms: dict[str, int] | None = None, config=None,
                 lang_map: dict[str, int] | None = None):
        self.freq = freq
        self.max_score = max(max_score, 1.0)
        self.lang_map = lang_map
        # geocoder_frequent_word_list (index.js:217-222): lowercase set
        self.frequent_words = None
        if config is not None and getattr(config, "frequent_word_list", None):
            self.frequent_words = {w.lower() for w in config.frequent_word_list}
        if config is not None:
            self.simple, self.complex_rules, self.global_rules = config.build_replacers()
        else:
            self.simple, self.complex_rules, self.global_rules = None, [], []
        # unambiguous INVERSE simple pairs: carmen-core's word
        # replacements match either side, so 'Ft Sumpter' is findable
        # through 'fort …' too — index the inverse form when the
        # reverse mapping is unique (fuzzy-with-tokens-and-autocomplete)
        self.simple_inverse: dict | None = None
        if self.simple:
            tos: dict = {}
            for f_, t_ in self.simple.tokens.items():
                tos.setdefault(t_, []).append(f_)
            inv = {t_: fs[0] for t_, fs in tos.items()
                   if len(fs) == 1 and t_ not in self.simple.tokens}
            self.simple_inverse = inv or None
        # geocoder_universal_text layers: every text counts as every
        # language (bit 127 — the 'universal' label, filter-sources)
        self.universal_layers: set[str] = set()
        if config is not None:
            self.universal_layers = {
                str(n) for n, lc in getattr(config, "layers", {}).items()
                if getattr(lc, "geocoder_universal_text", False)}

    def _token_variants(self, text: str) -> list[tuple[list[str], bool]]:
        """Apply global → complex (variant enumeration) → simple replacers
        per carmen's getIndexableText (termops.js:453-532). Returns
        [(tokens, reduce_relevance)]."""
        from ..text.token_replacer import enumerate_token_replacements, replace_global_tokens
        from ..text.tokenize import normalize_query as _nq, tokenize as _tk

        if self.global_rules:
            text = replace_global_tokens(self.global_rules, text).strip()
        variants = []
        seen_v: set = set()

        def _emit(toks, rr):
            key = tuple(toks)
            if toks and key not in seen_v:
                seen_v.add(key)
                variants.append((toks, rr))

        def _push(toks, rr):
            # index BOTH the simple-replaced and the authored form —
            # carmen's enumerateTokenReplacements keeps the original
            # among its variants, so 'Fort Wayne' is findable via
            # 'fo…' AND 'ft…' (fuzzy-with-tokens-and-autocomplete)
            if not toks:
                return
            if self.simple:
                rep = self.simple.replace(toks)
                _emit(rep, rr)
                _emit(toks, rr)
                if self.simple_inverse:
                    _emit([self.simple_inverse.get(w, w) for w in toks],
                          rr)
            else:
                _emit(toks, rr)

        if self.complex_rules:
            for v in enumerate_token_replacements(self.complex_rules, _tk(text)):
                _push(_nq(_tk(v["phrase"])).tokens, bool(v["reduceRelevance"]))
        else:
            _push(_nq(_tk(text)).tokens, False)
        return variants

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {
            "phrase": [], "layer": [], "idx": [], "zoom": [], "lang_set": [],
            "lang_set_hi": [],
            "relev": [], "score3": [], "x": [], "y": [], "fid": [],
            "phash": [], "score": [],
        }
        cols = {
            k: batch[k].to_pylist()
            for k in ("doc_id", "layer", "idx", "zoom", "text", "synonyms",
                      "langs_json", "score", "covers_x", "covers_y", "fid",
                      "addr_numbers_json", "addr_range_json", "intersections_json")
        }
        for r in range(batch.num_rows):
            texts: list[tuple[str, int]] = []
            # default text = bit 0 ONLY (no universal bit): language-
            # flagged requests penalize untranslated matches, and the
            # default request penalizes translations (LANGUAGE_PENALTY;
            # promote-language / localtext acceptance)
            default_mask = 1 << lang_bit("default")
            if cols["layer"][r] in self.universal_layers:
                default_mask |= 1 << lang_bit("all")
            main = cols["text"][r]
            if main:
                texts.append((main, default_mask))
            for syn in cols["synonyms"][r] or []:
                texts.append((syn, default_mask))
            for lc, alt in json.loads(cols["langs_json"][r]).items():
                lmask = 1 << lang_bit(lc, self.lang_map)
                if cols["layer"][r] in self.universal_layers:
                    lmask |= 1 << lang_bit("all")
                texts.append((alt, lmask))
            # carmen:text* comma-synonyms: every text value splits on
            # ',' into up to MAX_TEXT_SYNONYMS independently indexed
            # names (termops.js getIndexableText; 'Massachusetts, MA'
            # matches as either — the address-vs-postcode acceptance).
            # Display keeps the first part (closest-lang.js:324-328).
            split_texts: list[tuple[str, int]] = []
            for t_, m_ in texts:
                if "," in t_:
                    parts = [p.strip() for p in t_.split(",") if p.strip()]
                    for p in parts[:_MAX_TEXT_SYNONYMS]:
                        split_texts.append((p, m_))
                else:
                    split_texts.append((t_, m_))
            texts = split_texts

            score = cols["score"][r]
            score3 = encode_3bit_log(max(score, 0), self.max_score)
            xs = cols["covers_x"][r]
            ys = cols["covers_y"][r]
            fid = cols["fid"][r]

        # housenumber waffle tokens for address docs (termops.js:300-363,
        # prepended per getIndexableText keys, termops.js:509-515)
            housenums = None
            anj = cols["addr_numbers_json"][r]
            arj = cols["addr_range_json"][r]
            if anj or arj:
                from ..text.termops import get_housenum_range
                addressnumbers = [json.loads(anj)] if anj else None
                range_props = None
                if arj:
                    rng = json.loads(arj)
                    range_props = []
                    for side in ("l", "r"):
                        fr = rng.get(f"{side}fromhn") or []
                        to = rng.get(f"{side}tohn") or []
                        for a_list, b_list in zip(fr, to):
                            range_props.append((a_list, b_list))
                housenums = get_housenum_range(addressnumbers, range_props)

            inters = []
            inj = cols["intersections_json"][r]
            if inj:
                for cross in json.loads(inj):
                    cross_toks = normalize_query(tokenize(cross)).tokens
                    if self.simple:
                        cross_toks = self.simple.replace(cross_toks)
                    if cross_toks:
                        inters.append(["+intersection"] + cross_toks + [","])

            # seen: phrase → (relev, lang bitset, source text hash); the
            # source hash survives into the grid rows so getMatchingText
            # can recover WHICH synonym/translation produced the match
            # (carmen:source_phrase_hash, format-features.js:397-412)
            seen: dict[str, tuple[float, int, int]] = {}
            for text, lset in texts:
                ph = phrase_hash(text)
                for toks, reduce_rel in self._token_variants(text):
                    variants = [(toks, reduce_rel)]
                    if housenums:
                        variants += [([hn] + toks, reduce_rel) for hn in housenums]
                    for itoks in inters:
                        variants.append((itoks + toks, reduce_rel))
                    for vtoks, vrel in variants:
                     for p in get_indexable_phrases(vtoks, self.freq, text_hash=ph,
                                                   frequent_words=self.frequent_words,
                                                   reduce_relevance=vrel):
                        prev = seen.get(p.phrase)
                        if prev and prev[0] >= p.relev:
                            seen[p.phrase] = (prev[0], prev[1] | lset, prev[2])
                        else:
                            seen[p.phrase] = (p.relev, (prev[1] if prev else 0) | lset, p.hash)

            for phrase, (relev, lset, src_hash) in seen.items():
                for x, y in zip(xs, ys):
                    out["phrase"].append(phrase)
                    out["layer"].append(cols["layer"][r])
                    out["idx"].append(cols["idx"][r])
                    out["zoom"].append(cols["zoom"][r])
                    out["lang_set"].append(lset & _LANG_LO_MASK)
                    out["lang_set_hi"].append(lset >> 64)
                    out["relev"].append(relev)
                    out["score3"].append(score3)
                    out["x"].append(x)
                    out["y"].append(y)
                    out["fid"].append(fid)
                    out["phash"].append(src_hash)
                    out["score"].append(score)

        return pa.table({
            "phrase": pa.array(out["phrase"], type=pa.string()),
            "layer": pa.array(out["layer"], type=pa.string()),
            "idx": pa.array(out["idx"], type=pa.int32()),
            "zoom": pa.array(out["zoom"], type=pa.int32()),
            "lang_set": pa.array(out["lang_set"], type=pa.uint64()),
            "lang_set_hi": pa.array(out["lang_set_hi"], type=pa.uint64()),
            "relev": pa.array(out["relev"], type=pa.float64()),
            "score3": pa.array(out["score3"], type=pa.uint8()),
            "x": pa.array(out["x"], type=pa.int32()),
            "y": pa.array(out["y"], type=pa.int32()),
            "fid": pa.array(out["fid"], type=pa.int64()),
            "phash": pa.array(out["phash"], type=pa.int32()),
            "score": pa.array(out["score"], type=pa.float64()),
        })


def assign_phrase_ids(phrase_grid_ds):
    """Order-preserving sparse phrase ids via prefix-bin rank shuffle."""

    def add_bin(b: pa.Table) -> pa.Table:
        bins = [
            (ord(p[0]) if p else 0) * 256 + (ord(p[1]) % 256 if len(p) > 1 else 0)
            for p in b["phrase"].to_pylist()
        ]
        b = b.append_column("pbin", pa.array(bins, type=pa.int32()))
        # coarse shuffle key: many prefix bins share a shard; the exact
        # per-bin ranking is vectorized pandas inside the shard
        return b.append_column(
            "pshard", pa.array([x % 64 for x in bins], type=pa.int32()))

    def rank_shard(group: pd.DataFrame) -> pd.DataFrame:
        out = []
        for pbin, g in group.groupby("pbin", sort=False):
            g = g.sort_values("phrase", kind="mergesort").copy()
            codes, _ = pd.factorize(g["phrase"], sort=True)
            g["phrase_id"] = (np.int64(int(pbin)) << np.int64(40)) | codes.astype(np.int64)
            out.append(g)
        # pshard stays in the written table: sharded PhrasematchStage
        # actors read only their pshard slice (parquet row-group pruning
        # — blocks leave the groupby clustered by pshard)
        return pd.concat(out, ignore_index=True).drop(columns=["pbin"])

    return (
        phrase_grid_ds.map_batches(add_bin, batch_format="pyarrow")
        .groupby("pshard")
        .map_groups(rank_shard, batch_format="pandas")
    )


# --------------------------------------------------------- media cells


def media_cells_batch(batch: pa.Table) -> pa.Table:
    """Every media_ref-bearing doc → (media_ref, zxy cell, H3 r7-9, S2)
    keyed by the doc center — the raster↔vector join key table."""
    from ..geom.cells import hex_cells, s2_cells

    # ragged ref explosion stays a Python pass (string parsing); the
    # cell kernels run once, vectorized, over the collected coords
    out = {"doc_id": [], "media_ref": [], "zxy": []}
    lons, lats = [], []
    for doc_id, refs, lon, lat, zoom in zip(
        batch["doc_id"].to_pylist(), batch["media_refs"].to_pylist(),
        batch["center_lon"].to_pylist(), batch["center_lat"].to_pylist(),
        batch["zoom"].to_pylist(),
    ):
        for ref in refs or []:
            if ref.startswith("tile://"):
                z, x, y = parse_zxy(ref[len("tile://"):])
            else:
                z = zoom
                tx, ty = lonlat_to_tile(lon, lat, z)
                x, y = int(tx), int(ty)
            out["doc_id"].append(doc_id)
            out["media_ref"].append(ref)
            out["zxy"].append(f"{z}/{x}/{y}")
            lons.append(lon)
            lats.append(lat)
    lon_a = np.asarray(lons, dtype=np.float64)
    lat_a = np.asarray(lats, dtype=np.float64)
    return pa.table({
        "doc_id": pa.array(out["doc_id"], type=pa.string()),
        "media_ref": pa.array(out["media_ref"], type=pa.string()),
        "zxy": pa.array(out["zxy"], type=pa.string()),
        "h3_r7": pa.array(hex_cells(lon_a, lat_a, 7), type=pa.uint64()),
        "h3_r8": pa.array(hex_cells(lon_a, lat_a, 8), type=pa.uint64()),
        "h3_r9": pa.array(hex_cells(lon_a, lat_a, 9), type=pa.uint64()),
        "s2_cell": pa.array(s2_cells(lon_a, lat_a, 12), type=pa.uint64()),
    })


# -------------------------------------------------------------- facade


def _empty_index() -> "CarmenIndex":
    """Zero-doc corpus → valid empty index (edge hardening)."""
    empty_pg = pa.table({
        "phrase": pa.array([], type=pa.string()),
        "layer": pa.array([], type=pa.string()),
        "idx": pa.array([], type=pa.int32()),
        "zoom": pa.array([], type=pa.int32()),
        "lang_set": pa.array([], type=pa.uint64()),
        "lang_set_hi": pa.array([], type=pa.uint64()),
        "relev": pa.array([], type=pa.float64()),
        "score3": pa.array([], type=pa.uint8()),
        "x": pa.array([], type=pa.int32()),
        "y": pa.array([], type=pa.int32()),
        "fid": pa.array([], type=pa.int64()),
        "phash": pa.array([], type=pa.int32()),
        "score": pa.array([], type=pa.float64()),
        "phrase_id": pa.array([], type=pa.int64()),
    })
    empty_feats = pa.table({c: pa.array([], type=pa.string()) for c in
                            ("doc_id", "layer", "text")} | {
        "idx": pa.array([], type=pa.int32()),
        "zoom": pa.array([], type=pa.int32()),
        "fid": pa.array([], type=pa.int64()),
        "score": pa.array([], type=pa.float64()),
        "center_lon": pa.array([], type=pa.float64()),
        "center_lat": pa.array([], type=pa.float64()),
        "bbox_w": pa.array([], type=pa.float64()),
        "bbox_s": pa.array([], type=pa.float64()),
        "bbox_e": pa.array([], type=pa.float64()),
        "bbox_n": pa.array([], type=pa.float64()),
        "geometry_json": pa.array([], type=pa.string()),
        "langs_json": pa.array([], type=pa.string()),
    })
    empty_media = pa.table({
        "doc_id": pa.array([], type=pa.string()),
        "media_ref": pa.array([], type=pa.string()),
        "zxy": pa.array([], type=pa.string()),
        "h3_r7": pa.array([], type=pa.uint64()),
        "h3_r8": pa.array([], type=pa.uint64()),
        "h3_r9": pa.array([], type=pa.uint64()),
        "s2_cell": pa.array([], type=pa.uint64()),
    })
    return CarmenIndex(features=empty_feats, phrase_grid=empty_pg,
                       media_cells=empty_media, freq={"__COUNT__": 1},
                       max_score=1.0, layer_zooms={})


@dataclass
class CarmenIndex:
    """Built index: Arrow tables (test scale) or parquet dirs (bench
    scale — see write_index/load_index for the resumable layout)."""

    features: pa.Table
    phrase_grid: pa.Table
    media_cells: pa.Table
    freq: dict[str, int]
    max_score: float
    layer_zooms: dict[str, int] = field(default_factory=dict)

    @property
    def max_zoom(self) -> int:
        return max(self.layer_zooms.values()) if self.layer_zooms else 14


def build_index(docs_ds, freq_min_count: int = 1, config=None) -> CarmenIndex:
    """Full index build as a Ray Data pipeline; materializes the compact
    index tables (features + phrase_grid) at the end.

    At 100 TB: replace the final to-Arrow materializations with
    write_parquet partitioned by hash(doc_id) / prefix bin (see
    sources/io.py checkpoint layout) — the pipeline stages are identical.
    """
    import ray
    import pyarrow as _pa

    parsed = docs_ds.map_batches(
        parse_docs_batch, batch_format="pyarrow",
        fn_kwargs={"layer_meta": layer_meta_from_config(config)})
    parsed = parsed.materialize()  # reused by 3 downstream branches

    # one extra execution total: frequency aggregate (vocab is capped)
    freq = build_frequency(parsed, min_count=freq_min_count, config=config)

    # features land on the driver once; max_score / layer_zooms derive
    # from the materialized table instead of extra Dataset executions
    feat_tbl = _pa.concat_tables(
        ray.get(parsed.to_arrow_refs()), promote_options="permissive"
    )
    if feat_tbl.num_rows == 0 or "score" not in feat_tbl.column_names:
        return _empty_index()
    max_score = float(pc.max(feat_tbl["score"]).as_py() or 1.0)
    layer_zooms = {
        l: int(z) for l, z in zip(
            feat_tbl["layer"].to_pylist(), feat_tbl["zoom"].to_pylist())
    }

    lang_map = build_lang_map(parsed)
    phrase_grid = parsed.map_batches(
        PhraseGen,
        fn_constructor_kwargs={"freq": freq, "max_score": max_score, "config": config,
                               "lang_map": lang_map},
        batch_format="pyarrow",
        concurrency=(1, 4),
    )
    phrase_grid = assign_phrase_ids(phrase_grid)

    media = parsed.map_batches(media_cells_batch, batch_format="pyarrow")

    pg_tbl = _pa.concat_tables(
        ray.get(phrase_grid.materialize().to_arrow_refs()),
        promote_options="permissive",
    )
    media_tbl = _pa.concat_tables(
        ray.get(media.materialize().to_arrow_refs()),
        promote_options="permissive",
    )
    feature_cols = [
        "doc_id", "layer", "idx", "zoom", "fid", "text", "synonyms",
        "langs_json", "score", "center_lon", "center_lat", "geometry_json",
        "bbox_w", "bbox_s", "bbox_e", "bbox_n", "spans",
        "addr_numbers_json", "addr_range_json", "intersections_json",
        "proximity_radius", "overrides_json", "addr_style",
        "stack", "types_json", "omitted", "reverse_only",
        "formats_json", "props_json", "addressprops_json",
    ]
    feat_tbl = feat_tbl.select(feature_cols)
    # canonical feature order: context/reverse tie-breaks are
    # first-seen-wins, so row order must not depend on block arrival
    feat_tbl = feat_tbl.sort_by([
        ("idx", "ascending"), ("fid", "ascending"), ("doc_id", "ascending"),
    ])
    if "phrase" not in pg_tbl.column_names:
        # no feature produced any indexable phrase (e.g. every text
        # normalizes to nothing — indexdocs skips such docs silently,
        # the featurenoop acceptance) → schema-complete empty table
        from ..geocode.staged import empty_phrase_grid

        pg_tbl = empty_phrase_grid()
    # total-order sort: block arrival order varies with parallelism, and
    # any tie in the sort would leak that into grid-list order (and into
    # stacking-cap truncation) -> nondeterministic results across runs
    pg_tbl = pg_tbl.sort_by([
        ("phrase", "ascending"), ("idx", "ascending"), ("fid", "ascending"),
        ("x", "ascending"), ("y", "ascending"), ("lang_set", "ascending"),
    ])

    # precompute per-feature context chains (index/context.py) so the
    # query stages do a column lookup instead of bbox+PIP per candidate
    from .context import attach_context

    feat_tbl = attach_context(feat_tbl, layer_zooms)

    return CarmenIndex(
        features=feat_tbl,
        phrase_grid=pg_tbl,
        media_cells=media_tbl,
        freq=freq,
        max_score=max_score,
        layer_zooms=layer_zooms,
    )


def build_index_streaming(docs_ds, out_dir: str, freq_min_count: int = 1,
                          config=None, resume: bool = True) -> None:
    """Fully streaming index build: every table lands as partitioned
    parquet via Ray-native write_parquet sinks — nothing materializes on
    the driver except the (capped) frequency map and scalar metadata.
    This is the 100 TB shape; `build_index` is the compact in-memory
    variant tests and the fused query path use.

    Layout: {out}/features/, {out}/phrasegrid/, {out}/mediacells/
    (part files per block) + index_meta.json. Resume with
    sources/io.write_index/load_index for the lineage-tracked variant.
    """
    import json as _json
    import os

    def _done(table: str) -> str:
        return os.path.join(out_dir, table, "_SUCCESS")

    def _is_done(table: str) -> bool:
        return resume and os.path.exists(_done(table))

    def _mark(table: str) -> None:
        with open(_done(table), "w") as fh:
            fh.write("ok")

    parsed = docs_ds.map_batches(
        parse_docs_batch, batch_format="pyarrow",
        fn_kwargs={"layer_meta": layer_meta_from_config(config)})
    parsed = parsed.materialize()  # block refs only; reused by branches

    freq = build_frequency(parsed, min_count=freq_min_count, config=config)
    max_score_row = parsed.max("score")
    max_score = float(max_score_row if max_score_row is not None else 1.0)

    # ONE distinct scan feeds layer_zooms AND the dense layer rank
    # (carmen's ndx) — persisted in index_meta.json so sharded query
    # actors (which may hold no feature rows / partial phrase layers)
    # rank indexes identically everywhere
    liz = (
        parsed.select_columns(["layer", "idx", "zoom"])
        .map_batches(lambda df: df.drop_duplicates(), batch_format="pandas")
        .to_pandas()
        .drop_duplicates()
    )
    layer_zooms = {r.layer: int(r.zoom) for r in liz.itertuples()}
    lix = sorted({(r.layer, int(r.idx)) for r in liz.itertuples()},
                 key=lambda t: t[1])
    idx_rank = {int(ix): rank for rank, (_, ix) in enumerate(lix)}
    layers = [l for l, _ in lix]

    # whole-layer bounds (the reference's per-source `bounds`): a
    # distributed partial min/max per block, combined on the driver —
    # tiny metadata the sharded phrasematch actors need for the
    # bare-number proxMatch gate (phrasematch.js:47)
    lb = (
        parsed.select_columns(["layer", "bbox_w", "bbox_s", "bbox_e", "bbox_n"])
        .map_batches(
            lambda df: df.groupby("layer", as_index=False).agg(
                bbox_w=("bbox_w", "min"), bbox_s=("bbox_s", "min"),
                bbox_e=("bbox_e", "max"), bbox_n=("bbox_n", "max")),
            batch_format="pandas")
        .to_pandas()
        .groupby("layer", as_index=False)
        .agg(bbox_w=("bbox_w", "min"), bbox_s=("bbox_s", "min"),
             bbox_e=("bbox_e", "max"), bbox_n=("bbox_n", "max"))
    )
    layer_bounds = {
        r.layer: [float(r.bbox_w), float(r.bbox_s), float(r.bbox_e), float(r.bbox_n)]
        for r in lb.itertuples()}

    feature_cols = [
        "doc_id", "layer", "idx", "zoom", "fid", "text", "synonyms",
        "langs_json", "score", "center_lon", "center_lat", "geometry_json",
        "bbox_w", "bbox_s", "bbox_e", "bbox_n", "spans",
        "addr_numbers_json", "addr_range_json", "intersections_json",
        "proximity_radius", "overrides_json", "addr_style",
        "stack", "types_json", "omitted", "reverse_only",
        "formats_json", "props_json", "addressprops_json",
    ]
    os.makedirs(out_dir, exist_ok=True)
    # table-granular resume: a killed `ray job submit` run skips tables
    # whose _SUCCESS marker committed (finer-grained per-partition resume
    # lives in sources/io.write_index)
    if not _is_done("features"):
        import ray.data as _rd

        if not _is_done("features_raw"):
            parsed.select_columns(feature_cols).write_parquet(f"{out_dir}/features_raw")
            _mark("features_raw")
        # context precompute stage: annotate each feature with its parent
        # chain; each actor loads the pack from the raw parquet itself
        # (no driver materialization — see index/context.py scale note)
        from .context import ContextStage

        raw = _rd.read_parquet(f"{out_dir}/features_raw")
        # hive-partitioned by fshard (fid % FSHARD_MOD): a sharded
        # VerifyHydrate actor reads only its own fshard directories —
        # file-level pruning, no whole-table scan per actor
        raw.map_batches(
            ContextStage,
            fn_constructor_kwargs={"features_path": f"{out_dir}/features_raw",
                                   "layer_zooms": layer_zooms},
            batch_format="pyarrow",
            concurrency=(1, 4),
        ).write_parquet(f"{out_dir}/features", partition_cols=["fshard"])
        _mark("features")

    if not _is_done("phrasegrid"):
        phrase_grid = parsed.map_batches(
            PhraseGen,
            fn_constructor_kwargs={"freq": freq, "max_score": max_score, "config": config,
                                   "lang_map": build_lang_map(parsed)},
            batch_format="pyarrow",
            concurrency=(1, 4),
        )
        assign_phrase_ids(phrase_grid).write_parquet(f"{out_dir}/phrasegrid")
        _mark("phrasegrid")

    if not _is_done("mediacells"):
        parsed.map_batches(media_cells_batch, batch_format="pyarrow").write_parquet(
            f"{out_dir}/mediacells")
        _mark("mediacells")

    with open(f"{out_dir}/index_meta.json", "w") as f:
        _json.dump({"freq": freq, "max_score": max_score,
                    "layer_zooms": layer_zooms,
                    "idx_rank": {str(k): v for k, v in idx_rank.items()},
                    "layers": layers,
                    "layer_bounds": layer_bounds}, f)


def load_index_meta(out_dir: str) -> dict:
    """Scalar index metadata (freq map, max_score, layer_zooms, dense
    idx_rank, layer list) — the ONLY thing the driver needs to launch
    the sharded query pipeline; the tables stay in parquet and each
    actor reads its own shard."""
    import json as _json

    with open(f"{out_dir}/index_meta.json") as f:
        meta = _json.load(f)
    meta["idx_rank"] = {int(k): int(v) for k, v in meta.get("idx_rank", {}).items()}
    return meta


_FEAT_SORT = [("idx", "ascending"), ("fid", "ascending"), ("doc_id", "ascending")]
_PG_SORT = [
    ("phrase", "ascending"), ("idx", "ascending"), ("fid", "ascending"),
    ("x", "ascending"), ("y", "ascending"), ("lang_set", "ascending"),
    ("lang_set_hi", "ascending"),
]


def read_feature_shard(out_dir: str, shard: int = 0, of_n: int = 1) -> pa.Table:
    """Feature rows whose fshard % of_n == shard, canonically sorted.
    The hive fshard= layout prunes at the file level — an of_n-actor
    pool collectively reads the table exactly once, 1/of_n each."""
    import pyarrow.dataset as _pds

    from .. import constants as _c

    dset = _pds.dataset(f"{out_dir}/features", format="parquet",
                        partitioning="hive")
    if of_n > 1:
        vals = [v for v in range(_c.FSHARD_MOD) if v % of_n == shard % of_n]
        tbl = dset.to_table(filter=_pds.field("fshard").isin(vals))
    else:
        tbl = dset.to_table()
    return tbl.sort_by(_FEAT_SORT)


def read_phrase_shard(out_dir: str, shard: int = 0, of_n: int = 1) -> pa.Table:
    """Phrase/grid rows whose pshard % of_n == shard, canonically
    sorted. Blocks leave the phrase-id groupby clustered by pshard, so
    the isin filter prunes at row-group granularity."""
    import pyarrow.dataset as _pds

    from .. import constants as _c

    dset = _pds.dataset(f"{out_dir}/phrasegrid", format="parquet")
    if of_n > 1:
        vals = [v for v in range(_c.PSHARD_MOD) if v % of_n == shard % of_n]
        tbl = dset.to_table(filter=_pds.field("pshard").isin(vals))
    else:
        tbl = dset.to_table()
    return tbl.sort_by(_PG_SORT)


def load_index_streaming(out_dir: str) -> "CarmenIndex":
    """Load a streaming-built index directory into a compact CarmenIndex
    (test-scale convenience; at scale, actors read their shard of the
    parquet directly via read_feature_shard / read_phrase_shard)."""
    import glob

    import pyarrow.parquet as _pq

    meta = load_index_meta(out_dir)
    feats = read_feature_shard(out_dir)
    pg = read_phrase_shard(out_dir)
    media = pa.concat_tables(
        [_pq.read_table(p) for p in sorted(glob.glob(f"{out_dir}/mediacells/*.parquet"))],
        promote_options="permissive",
    )
    return CarmenIndex(
        features=feats, phrase_grid=pg, media_cells=media,
        freq=meta["freq"], max_score=meta["max_score"],
        layer_zooms=meta["layer_zooms"],
    )
