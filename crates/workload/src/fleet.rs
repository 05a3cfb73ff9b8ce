//! Synthetic fleet-trajectory generator — the stand-in for the paper's
//! proprietary data set R.

use crate::record::Record;
use crate::R_MBR;
use rand::prelude::*;
use rand_distr::Normal;
use sts_document::{DateTime, Value};
use sts_geo::GeoPoint;

/// Weighted urban hotspots (lon, lat, weight): vehicles concentrate in
/// Greek cities, giving the spatial skew the paper's R set exhibits.
/// Athens dominates — which is what makes the paper's small-query
/// rectangle (central Athens) productive.
const HOTSPOTS: &[(f64, f64, f64)] = &[
    (23.727539, 37.983810, 0.36), // Athens
    (23.850000, 38.150000, 0.10), // North Attica corridor (Kifisia–Marathon)
    (22.944608, 40.640063, 0.15), // Thessaloniki
    (21.734574, 38.246639, 0.08), // Patras
    (25.144213, 35.338735, 0.05), // Heraklion
    (22.419125, 39.639022, 0.05), // Larissa
    (22.942961, 39.362189, 0.04), // Volos
    (20.850832, 39.664993, 0.04), // Ioannina
    (24.401913, 40.939591, 0.03), // Kavala
    (22.114219, 37.038939, 0.03), // Kalamata
    (28.217750, 36.434903, 0.03), // Rhodes
    (21.274830, 37.675030, 0.02), // Pyrgos
    (26.136410, 38.367550, 0.02), // Chios
];

/// Spread of in-city driving around a hotspot centre, in degrees.
const CITY_SIGMA: f64 = 0.045;
/// GPS fix interval along a trip.
const FIX_INTERVAL_MS: i64 = 30_000;

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Total records to emit.
    pub records: u64,
    /// Fleet size; the scale study adds vehicles, never extends the
    /// spatio-temporal bounding box (§5.4).
    pub vehicles: u32,
    /// First fix timestamp (paper: 2018-07-01).
    pub start: DateTime,
    /// Covered timespan in days (paper: ~153, July–November 2018).
    pub span_days: u32,
    /// Extra payload columns beyond id/position/time/vehicle, to match
    /// the paper's 75-value records.
    pub extra_fields: usize,
    /// RNG seed (the generator is fully deterministic).
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            records: (crate::PAPER_R_RECORDS as f64 * crate::DEFAULT_SCALE) as u64,
            vehicles: 500,
            start: DateTime::from_ymd_hms(2018, 7, 1, 0, 0, 0),
            span_days: 153,
            extra_fields: 71,
            seed: 0x5137_2021,
        }
    }
}

/// Generate the full record stream, sorted by timestamp (fleet platforms
/// ingest time-ordered feeds, and §A.1's loader preserves that).
pub fn generate(cfg: &FleetConfig) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let per_vehicle = (cfg.records / u64::from(cfg.vehicles.max(1))).max(1);
    let span_ms = i64::from(cfg.span_days) * 86_400_000;
    let jitter = Normal::new(0.0, CITY_SIGMA).expect("valid sigma");

    let mut records = Vec::with_capacity(cfg.records as usize);
    let mut emitted = 0u64;
    for vehicle in 0..cfg.vehicles {
        if emitted >= cfg.records {
            break;
        }
        let budget = per_vehicle.min(cfg.records - emitted);
        emitted += budget;
        let home = pick_hotspot(&mut rng);
        // Trips of ~40 fixes (20 minutes) spread across the span.
        let trip_len = 40u64;
        let n_trips = budget.div_ceil(trip_len);
        let mut remaining = budget;
        for _ in 0..n_trips {
            if remaining == 0 {
                break;
            }
            let fixes = trip_len.min(remaining);
            remaining -= fixes;
            // 85% of trips stay in the home city; the rest drive to
            // another hotspot (long-haul segments cross the country).
            let from = jitter_around(home, &jitter, &mut rng);
            let to_center = if rng.gen_bool(0.85) {
                home
            } else {
                pick_hotspot(&mut rng)
            };
            let to = jitter_around(to_center, &jitter, &mut rng);
            let t0 = rng.gen_range(
                0..span_ms
                    .saturating_sub(fixes as i64 * FIX_INTERVAL_MS)
                    .max(1),
            );
            for f in 0..fixes {
                let frac = f as f64 / fixes.max(2) as f64;
                // Linear interpolation plus small GPS noise.
                let lon = from.lon + (to.lon - from.lon) * frac + rng.gen_range(-5e-4..5e-4);
                let lat = from.lat + (to.lat - from.lat) * frac + rng.gen_range(-5e-4..5e-4);
                let p = clamp_to_mbr(GeoPoint::new(lon, lat));
                let date = cfg.start.plus_millis(t0 + f as i64 * FIX_INTERVAL_MS);
                records.push(Record {
                    id: 0, // assigned after the time sort
                    vehicle,
                    lon: p.lon,
                    lat: p.lat,
                    date,
                    payload: payload_fields(cfg.extra_fields, vehicle, &p, &mut rng),
                });
            }
        }
    }
    records.sort_by_key(|r| r.date);
    for (i, r) in records.iter_mut().enumerate() {
        r.id = i as u64;
    }
    records
}

fn pick_hotspot(rng: &mut StdRng) -> GeoPoint {
    let total: f64 = HOTSPOTS.iter().map(|h| h.2).sum();
    let mut x = rng.gen_range(0.0..total);
    for &(lon, lat, w) in HOTSPOTS {
        if x < w {
            return GeoPoint::new(lon, lat);
        }
        x -= w;
    }
    let last = HOTSPOTS.last().unwrap();
    GeoPoint::new(last.0, last.1)
}

fn jitter_around(center: GeoPoint, dist: &Normal<f64>, rng: &mut StdRng) -> GeoPoint {
    clamp_to_mbr(GeoPoint::new(
        center.lon + dist.sample(rng),
        center.lat + dist.sample(rng),
    ))
}

fn clamp_to_mbr(p: GeoPoint) -> GeoPoint {
    GeoPoint::new(
        p.lon.clamp(R_MBR.min_lon, R_MBR.max_lon),
        p.lat.clamp(R_MBR.min_lat, R_MBR.max_lat),
    )
}

/// The 71 extra columns: vehicle telemetry, weather, road network and
/// POI context, mirroring the paper's schema description.
fn payload_fields(n: usize, vehicle: u32, p: &GeoPoint, rng: &mut StdRng) -> Vec<(String, Value)> {
    let mut out = Vec::with_capacity(n);
    let road_types = ["motorway", "primary", "secondary", "residential", "service"];
    let weather = ["clear", "clouds", "rain", "mist", "drizzle"];
    let poi = ["fuel", "parking", "restaurant", "hotel", "port", "depot"];
    let push = |out: &mut Vec<(String, Value)>, k: &str, v: Value| {
        if out.len() < n {
            out.push((k.to_string(), v));
        }
    };
    push(
        &mut out,
        "speedKmh",
        Value::from((rng.gen_range(0.0..130.0f64) * 10.0).round() / 10.0),
    );
    push(&mut out, "heading", Value::from(rng.gen_range(0..360)));
    push(&mut out, "engineRpm", Value::from(rng.gen_range(700..3500)));
    push(
        &mut out,
        "fuelLevel",
        Value::from((rng.gen_range(0.05..1.0f64) * 100.0).round() / 100.0),
    );
    push(
        &mut out,
        "odometerKm",
        Value::from(rng.gen_range(10_000.0..400_000.0f64).round()),
    );
    push(&mut out, "ignition", Value::from(true));
    push(
        &mut out,
        "driverId",
        Value::from(format!("drv-{:04}", vehicle % 997)),
    );
    push(
        &mut out,
        "weatherMain",
        Value::from(weather[rng.gen_range(0..weather.len())]),
    );
    push(
        &mut out,
        "temperatureC",
        Value::from((rng.gen_range(-5.0..40.0f64) * 10.0).round() / 10.0),
    );
    push(&mut out, "humidityPct", Value::from(rng.gen_range(20..100)));
    push(
        &mut out,
        "windMs",
        Value::from((rng.gen_range(0.0..20.0f64) * 10.0).round() / 10.0),
    );
    push(
        &mut out,
        "roadType",
        Value::from(road_types[rng.gen_range(0..road_types.len())]),
    );
    push(
        &mut out,
        "roadSpeedLimit",
        Value::from([50, 80, 90, 110, 130][rng.gen_range(0..5usize)]),
    );
    push(
        &mut out,
        "roadName",
        Value::from(format!("rd-{:03}", rng.gen_range(0..500))),
    );
    push(
        &mut out,
        "nearestPoiType",
        Value::from(poi[rng.gen_range(0..poi.len())]),
    );
    push(
        &mut out,
        "nearestPoiDistM",
        Value::from((rng.gen_range(5.0..5_000.0f64)).round()),
    );
    push(
        &mut out,
        "regionCode",
        Value::from(format!("GR-{:02}", (p.lon * 3.0) as i32 % 13)),
    );
    // Generic filler columns complete the 75-value schema.
    let mut i = 0;
    while out.len() < n {
        let v = match i % 3 {
            0 => Value::from((rng.gen_range(0.0..1.0f64) * 1_000.0).round() / 1_000.0),
            1 => Value::from(rng.gen_range(0..10_000)),
            _ => Value::from(format!("v{:04}", rng.gen_range(0..9_999))),
        };
        out.push((format!("aux{i:02}"), v));
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FleetConfig {
        FleetConfig {
            records: 5_000,
            vehicles: 25,
            ..Default::default()
        }
    }

    #[test]
    fn exact_count_and_time_order() {
        let recs = generate(&small_cfg());
        assert_eq!(recs.len(), 5_000);
        assert!(recs.windows(2).all(|w| w[0].date <= w[1].date));
        assert!(recs.windows(2).all(|w| w[0].id + 1 == w[1].id));
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&small_cfg());
        let b = generate(&small_cfg());
        assert_eq!(a, b);
        let c = generate(&FleetConfig {
            seed: 1,
            ..small_cfg()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn stays_inside_paper_mbr() {
        for r in generate(&small_cfg()) {
            assert!(R_MBR.contains(GeoPoint::new(r.lon, r.lat)), "{r:?}");
            assert!(r.date >= DateTime::from_ymd_hms(2018, 7, 1, 0, 0, 0));
            assert!(r.date <= DateTime::from_ymd_hms(2018, 12, 2, 0, 0, 0));
        }
    }

    #[test]
    fn spatially_skewed_towards_athens() {
        let recs = generate(&FleetConfig {
            records: 20_000,
            vehicles: 100,
            ..Default::default()
        });
        let athens = sts_geo::GeoRect::new(23.5, 37.75, 24.0, 38.2);
        let in_athens = recs
            .iter()
            .filter(|r| athens.contains(GeoPoint::new(r.lon, r.lat)))
            .count();
        let frac = in_athens as f64 / recs.len() as f64;
        assert!(
            (0.25..0.75).contains(&frac),
            "Athens should dominate but not monopolize: {frac}"
        );
    }

    #[test]
    fn paper_schema_width() {
        let recs = generate(&FleetConfig {
            records: 10,
            vehicles: 1,
            ..Default::default()
        });
        // 75 values per record: _id, location, date, vehicleId + 71.
        assert!(recs.iter().all(|r| r.field_count() == 75));
        let d = recs[0].to_document();
        assert_eq!(d.len(), 75);
    }

    #[test]
    fn more_vehicles_same_box() {
        // Scale-up adds vehicles, distribution stays inside the MBR.
        let big = generate(&FleetConfig {
            records: 10_000,
            vehicles: 200,
            ..Default::default()
        });
        let vehicles: std::collections::HashSet<u32> = big.iter().map(|r| r.vehicle).collect();
        assert!(vehicles.len() > 150);
    }
}
