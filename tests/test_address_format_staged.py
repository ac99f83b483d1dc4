"""Staged == fused on the geocode-unit.address-format multi-layer stack:
SOURCE-level geocoder_format templates over layers declared in the
fixture's order (country, region, postcode, place, address, poi), so
declaration-order layer numbering and template rendering must agree
between the fused actor and the staged hydrate."""

import json

import pyarrow as pa

from acceptance_util import _mk_spans, tile_box, tile_center, tiles_poly

_US = ("{{address.number}} {{address.name}} {{place.name}}, "
       "{{region.name}} {{postcode.name}}, {{country.name}}")

# address-format.test.js:236-290
EXPECTED = {
    "9 fake street":
        "9 fake street springfield, maine 12345, united states",
    "fake street": "fake street springfield, maine 12345, united states",
    "springfield": "springfield, maine 12345, united states",
    "moes tavern":
        "moes tavern, fake street springfield, maine 12345, united states",
}


def _springfield():
    """(config, rows) of the address-format.test.js:122-230 stack."""
    from carmen_ray.config import GeocoderConfig, LayerConfig

    def shrink(box, f):
        w, s, e, n = box
        cx, cy = (w + e) / 2, (s + n) / 2
        return (cx - (cx - w) * f, cy - (cy - s) * f,
                cx + (e - cx) * f, cy + (n - cy) * f)

    b = tile_box(6, 32, 32)
    ctr = tile_center(6, 32, 32)
    cen = f"{ctr[0]},{ctr[1]}"
    cfg = GeocoderConfig(layers={
        "country": LayerConfig("country", zoom=6,
                               geocoder_format="{{country.name}}"),
        "region": LayerConfig(
            "region", zoom=6,
            geocoder_format="{{region.name}}, {{country.name}}"),
        "postcode": LayerConfig(
            "postcode", zoom=6,
            geocoder_format="{{region.name}}, {{postcode.name}}, "
                            "{{country.name}}"),
        "place": LayerConfig(
            "place", zoom=6,
            geocoder_format="{{place.name}}, {{region.name}} "
                            "{{postcode.name}}, {{country.name}}"),
        "address": LayerConfig("address", zoom=6, geocoder_address=True,
                               geocoder_format=_US),
        "poi": LayerConfig(
            "poi", zoom=6,
            geocoder_format="{{poi.name}}, {{address.number}} "
                            "{{address.name}} {{place.name}}, "
                            "{{region.name}} {{postcode.name}}, "
                            "{{country.name}}"),
    })
    addr_geom = json.dumps({"type": "GeometryCollection", "geometries": [
        {"type": "MultiPoint", "coordinates": [list(ctr)] * 3},
        {"type": "Polygon", "coordinates": [[
            [b[0], b[1]], [b[2], b[1]], [b[2], b[3]], [b[0], b[3]],
            [b[0], b[1]]]]},
    ]})
    rows = [
        ("country.1", _mk_spans([
            ("text", "united states", ""), ("geom", tiles_poly(b), ""),
            ("center", cen, "")])),
        ("region.1", _mk_spans([
            ("text", "maine", ""), ("geom", tiles_poly(shrink(b, 0.9)), ""),
            ("center", cen, "")])),
        ("postcode.1", _mk_spans([
            ("text", "12345", ""), ("geom", tiles_poly(shrink(b, 0.8)), ""),
            ("center", cen, "")])),
        ("place.1", _mk_spans([
            ("text", "springfield", ""),
            ("geom", tiles_poly(shrink(b, 0.7)), ""),
            ("center", cen, "")])),
        ("address.1", _mk_spans([
            ("text", "fake street", ""), ("geom", addr_geom, ""),
            ("center", cen, ""), ("addr_numbers", "9,10,7", "")])),
        ("poi.1", _mk_spans([
            ("text", "moes tavern", ""), ("geom", json.dumps(
                {"type": "Point", "coordinates": list(ctr)}), ""),
            ("center", cen, "")])),
    ]
    return cfg, rows


def test_address_format_staged_matches_fused(ray_session):
    import ray.data as rd

    from carmen_ray.geocode.engine import forward_geocode_ds
    from carmen_ray.geocode.staged import forward_geocode_staged
    from carmen_ray.index.build import build_index
    from carmen_ray.sources.synth import SPAN_TYPE

    cfg, rows = _springfield()
    tbl = pa.table({
        "doc_id": pa.array([r[0] for r in rows]),
        "spans": pa.array([r[1] for r in rows], type=pa.list_(SPAN_TYPE))})
    idx = build_index(rd.from_arrow(tbl).repartition(1), config=cfg)
    qs = list(EXPECTED)
    queries = pa.table({"query_id": [f"q{i}" for i in range(len(qs))],
                        "query": qs})
    fused = forward_geocode_ds(rd.from_arrow(queries), idx, config=cfg,
                               concurrency=1).to_pandas()
    staged = forward_geocode_staged(rd.from_arrow(queries), idx, config=cfg,
                                    concurrency=1).to_pandas()
    key = ["query_id", "rank"]
    f = fused.sort_values(key).reset_index(drop=True)
    s = staged.sort_values(key).reset_index(drop=True)
    assert len(f) == len(s) and len(f) >= len(qs)
    assert (f[key] == s[key]).all().all()
    assert (f["feature_id"] == s["feature_id"]).all()
    assert (f["place_name"] == s["place_name"]).all()
    top = s[s["rank"] == s.groupby("query_id")["rank"].transform("min")]
    got = dict(zip(top["query_id"], top["place_name"]))
    for i, q in enumerate(qs):
        assert got[f"q{i}"] == EXPECTED[q], q
