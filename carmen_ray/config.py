"""Geocoder configuration: the engine's analogue of carmen's per-index
tileJSON metadata (~30 geocoder_* switches, docs/data-sources.md) plus
the global options (index.js:54-75).

Plain picklable dataclasses — built once on the driver, shipped to
map_batches actors via constructor args (the broadcast pattern).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .text.token_replacer import (
    GlobalRule,
    ReplaceRule,
    SimpleReplacer,
    categorize_token_replacements,
    create_complex_replacer,
    create_global_replacer,
    create_simple_replacer,
)

# whitespace.js NUMBER_LETTER_MATCHER: ≥3 letters + digits, or digits + ≥4 letters
_NUMBER_LETTER = re.compile(
    r"^(([A-Za-zÀ-ÖØ-öø-ÿ]{3,})([0-9]+)|([0-9]+)([A-Za-zÀ-ÖØ-öø-ÿ]{4,}))$"
)


def format_for_language(formats: dict, language: str | None) -> str | None:
    """The place_name template for `language` from a {code: template}
    dict (geocoder_format_{lang} / carmen:format_{lang}): the exact code,
    then the code case-insensitively, then its primary language
    (en-XX → en); otherwise formats["default"] (None when absent). No
    cross-language fallback applies — unlike display text, format_de
    never serves an en request (address-format.test.js:56-114)."""
    if language:
        lang = str(language).replace("-", "_")
        cands = {k: v for k, v in formats.items() if k != "default"}
        if lang in cands:
            return cands[lang]
        folded = {k.replace("-", "_").lower(): v for k, v in cands.items()}
        for key in (lang.lower(), lang.split("_")[0].lower()):
            if key in folded:
                return folded[key]
    return formats.get("default")


def whitespace_hypothesis(tokens: list[str]) -> list[str] | None:
    """lib/util/whitespace.js:6-28 — split letter/number run-ons."""
    wsm = whitespace_hypothesis_map(tokens)
    return wsm[0] if wsm is not None else None


def whitespace_hypothesis_map(
        tokens: list[str]) -> tuple[list[str], list[int]] | None:
    """whitespace_hypothesis plus, per new token, the ORIGINAL token's
    mask bit (phrasematch.js gapExpansionMasks: words split out of one
    query token keep that token's mask position, so corrected-hypothesis
    subqueries still stack against base-hypothesis covers)."""
    new_tokens: list[str] = []
    mask_map: list[int] = []
    found = False
    for i, tok in enumerate(tokens):
        m = _NUMBER_LETTER.match(tok)
        if m:
            found = True
            parts = ([m.group(2), m.group(3)] if m.group(2)
                     else [m.group(4), m.group(5)])
            new_tokens.extend(parts)
            mask_map.extend([1 << i] * 2)
        else:
            new_tokens.append(tok)
            mask_map.append(1 << i)
    return (new_tokens, mask_map) if found else None


@dataclass
class LayerConfig:
    """Per-layer geocoder_* switches (subset the engine honors)."""

    name: str
    # maxzoom meta (tileJSON): None → the built-in per-layer default
    # (LAYER_ZOOM) for known layer names, 6 otherwise
    zoom: int | None = None
    # geocoder_name (index.js:121): the NAME GROUP this layer belongs
    # to; several layers may share one name (worldview-split sources)
    # and behave as a single group for filters/context conflicts.
    # None → the layer's own name.
    geocoder_name: str | None = None
    # geocoder_type (index.js:122): the TYPE this layer serves when it
    # differs from its name group — same-name different-type sources
    # CONFLICT in reverse context stacking (context.js:188,652: the
    # closer feature evicts the other from the chain). None → the name.
    geocoder_type: str | None = None
    # geocoder_types (index.js:123): ALL types this layer can host
    # (multityped features); defaults to [geocoder_name]. Gates the
    # forward types filter at the source level (sourceMatchesTypes).
    geocoder_types: list[str] = field(default_factory=list)
    geocoder_address: bool = False
    geocoder_tokens: dict = field(default_factory=dict)
    geocoder_stack: list[str] = field(default_factory=list)
    geocoder_languages: list[str] = field(default_factory=list)
    geocoder_inherit_score: bool = False
    # geocoder_grant_score (index.js:210, verifymatch.js:796,822): may
    # this layer's features GRANT their score to an identically-named
    # inheriting child. The reference defaults every source to True;
    # here None keeps the engine's built-in hierarchy defaults
    # (region/country), True/False adds/removes this layer explicitly.
    geocoder_grant_score: bool | None = None
    geocoder_universal_text: bool = False
    reverse_only: bool = False
    # geocoder_categories (phrasematch.js:348-353): query phrases in
    # this set mark their phrasematch cat_match=True; a category-matched
    # subquery never becomes matching_text (format-features.js:462-464)
    geocoder_categories: list[str] = field(default_factory=list)
    # scoreranges (filter-sources.js:82-110): subtype → (lo, hi) score
    # fractions of maxscore, enabling "poi.landmark"-style type filters
    scoreranges: dict = field(default_factory=dict)
    # authored minscore/maxscore (tileJSON meta, docs/data-sources.md;
    # geocode-unit.scoredist sets maxscore=100000 over observed 10000):
    # geocoder.minScore/maxScore aggregate these across sources, and the
    # verify scoredist normalizes raw scores against them — None falls
    # back to the observed build-time bounds
    minscore: float | None = None
    maxscore: float | None = None
    # geocoder_worldview (context.js:37-67): the worldview this layer's
    # data represents; "all" participates in every worldview
    geocoder_worldview: str = "all"
    # geocoder_ignore_order (verifymatch.js:805-811): matches from this
    # layer neither set the query direction nor take the backy penalty
    geocoder_ignore_order: bool = False
    # geocoder_coalesce_radius (indexer/index.js:233, docs/data-sources.md):
    # per-source proximity area-of-effect in miles, used as the scoredist
    # radius inside coalesce (and as the nearby-only cutoff for
    # partial-number matches). None → carmen's zoom-scaled default.
    geocoder_coalesce_radius: float | None = None
    # geocoder_reverse_mode (index.js:212, context.js:456): when true,
    # reverse queries with reverseMode='score' rank this source's
    # candidates by distscore (score/distance) instead of pure distance
    geocoder_reverse_mode: bool = False
    # geocoder_address_order (verifymatch.js:748,933): the expected
    # query direction for this ADDRESS source — the ±0.01 direction
    # refund goes to matches in this order ('ascending' default;
    # Japanese addresses author 'descending', the jp-order acceptance)
    geocoder_address_order: str = "ascending"
    # geocoder_expected_number_order (index.js:213, phrasematch.js:
    # 356-369): 'first' | 'last'; address subqueries whose house number
    # sits at the other end take a 0.99 weight penalty
    geocoder_expected_number_order: str | None = None
    # geocoder_format / geocoder_format_{lang} (index.js:174-199,
    # format-features.js getFormatString): SOURCE-level place_name
    # templates with {{type.name}} / {{type.number}} placeholders,
    # applied to results whose feature belongs to this layer (a
    # per-feature carmen:format still wins; the address-format
    # acceptance)
    geocoder_format: str | None = None
    geocoder_formats: dict = field(default_factory=dict)
    # geocoder_intersection_token (index.js five hits, phrasematch.js:
    # 204-206): the joining word that triggers intersection
    # permutations for this source ("X <token> Y" → "+intersection X ,
    # Y"). None keeps the engine default ("and")
    geocoder_intersection_token: str | None = None


@dataclass
class GeocoderConfig:
    """Global options: token replacement maps + matching knobs."""

    tokens: dict = field(default_factory=dict)          # geocoder_tokens word map
    global_tokens: dict = field(default_factory=dict)   # PatternReplaceMap
    fuzzy_match: bool = True
    autocomplete: bool = True
    layers: dict[str, LayerConfig] = field(default_factory=dict)
    # options.worldviews (index.js:77): configured worldviews, FIRST is
    # the query-time default; empty list = worldviews feature unused
    # (layers bound via geocoder_worldview still filter when a query
    # passes an explicit worldview, the pre-r5 behavior)
    worldviews: list[str] = field(default_factory=list)
    # geocoder_format (format-features.js getPlaceName template role):
    # placeholders {address} {name} {context}; None → carmen default
    # "{address} {name}, {context}"
    place_format: str | None = None
    # geocoder_format_{lang} (format-features.js:50-112): per-language
    # templates keyed by language code, e.g. {"ja": "{context} {name}"};
    # falls back to place_format then the default
    place_formats: dict = field(default_factory=dict)
    # user-supplied format helper functions (index.js:68-74
    # options.formatHelpers), merged over util/helpers.DEFAULT_HELPERS;
    # invoked from templates as "{helperName value}"
    format_helpers: dict = field(default_factory=dict)
    # geocoder_frequent_word_list (index.js:217-222, indexdocs.js:399):
    # words whose omission from a permutation still counts as a full
    # match at indexing time (relevance not degraded for dropping them)
    frequent_word_list: list = field(default_factory=list)
    # geocoder_inverse_tokens (index.js:208, options docs :56): explicit
    # abbreviation-reversal map ("st" → "street"); applied as inverse
    # complex rules so the reversed variants rank below canonical ones
    # in indexing variant order (token.js:286-302 `changes` bookkeeping)
    inverse_tokens: dict = field(default_factory=dict)

    def render_place_name(self, name: str, context_names: list[str],
                          address: str | None = None,
                          language: str | None = None) -> str:
        fmt = format_for_language(self.place_formats, language)
        if fmt is None:
            fmt = self.place_format or "{address} {name}, {context}"
        from .util.helpers import render_template

        out = render_template(
            fmt,
            {"address": address or "", "name": name,
             "context": ", ".join(context_names)},
            self.format_helpers)
        # collapse artifacts from empty placeholders
        out = " ".join(out.split())
        return out.strip(" ,")

    def build_replacers(self):
        """→ (simple, complex, global) replacers, carmen's categorization
        (token.js:439-487): simple word swaps go to both index & query;
        complex regex rules apply at index time via variant enumeration.

        Per-layer geocoder_tokens (index.js source meta; the relevance
        acceptance maps Drive→Dr on the address source only) merge into
        the shared map — carmen scopes each source's replacer to that
        source, approximated here as a global merge where the global
        map wins conflicts (documented divergence: a layer's token rule
        also applies to other layers' phrases)."""
        tokens = dict(self.tokens)
        for lc in getattr(self, "layers", {}).values():
            for k, v in (getattr(lc, "geocoder_tokens", None) or {}).items():
                tokens.setdefault(k, v)
        cat = categorize_token_replacements(tokens)
        simple = create_simple_replacer(cat["simple"]) if cat["simple"] else None
        complex_rules = (
            create_complex_replacer(cat["complex"], include_unambiguous=True)
            if cat["complex"] else []
        )
        if self.inverse_tokens:
            inv_rules = create_complex_replacer(self.inverse_tokens)
            for r in inv_rules:
                r.inverse = True
            complex_rules = complex_rules + inv_rules
        global_rules = create_global_replacer(self.global_tokens) if self.global_tokens else []
        return simple, complex_rules, global_rules


DEFAULT_TOKENS = {
    # the standard abbreviation class (geocoder-abbreviations style)
    "street": "st",
    "avenue": "ave",
    "boulevard": "blvd",
    "road": "rd",
    "lane": "ln",
    "drive": "dr",
    "square": "sq",
    "place": "pl",
    "north": "n",
    "south": "s",
    "east": "e",
    "west": "w",
    "saint": "st",
}
