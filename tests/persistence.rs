//! Cross-crate persistence: model snapshots and trace interchange formats
//! on realistic generated data, including corruption handling.

use cellular_cp_traffgen::prelude::*;
use cellular_cp_traffgen::stats::Ecdf;
use cellular_cp_traffgen::trace::io;

fn small_setup() -> (ModelSet, Trace) {
    let world = generate_world(&WorldConfig::new(PopulationMix::new(25, 10, 6), 1.0, 55));
    let models = fit(&world, &FitConfig::new(Method::Ours));
    let config = GenConfig::new(
        PopulationMix::new(25, 10, 6),
        Timestamp::at_hour(0, 12),
        2.0,
        9,
    );
    let synth = generate(&models, &config);
    (models, synth)
}

#[test]
fn model_snapshot_survives_json_and_still_generates() {
    let (models, _) = small_setup();
    let json = models.to_json().expect("serialize");
    let restored = ModelSet::from_json(&json).expect("deserialize");
    assert_eq!(models, restored);
    // The format is pinned: a loaded model serialises to the same bytes.
    assert_eq!(restored.to_json().expect("serialize"), json);
    // The restored model must generate the identical trace for a seed.
    let config = GenConfig::new(
        PopulationMix::new(10, 4, 2),
        Timestamp::at_hour(0, 10),
        1.0,
        31,
    );
    assert_eq!(generate(&models, &config), generate(&restored, &config));
}

#[test]
fn trace_formats_round_trip_generated_data() {
    let (_, synth) = small_setup();
    // CSV
    let mut csv = Vec::new();
    io::write_csv(&synth, &mut csv).unwrap();
    assert_eq!(io::read_csv(&csv[..]).unwrap(), synth);
    // JSONL
    let mut jsonl = Vec::new();
    io::write_jsonl(&synth, &mut jsonl).unwrap();
    assert_eq!(io::read_jsonl(&jsonl[..]).unwrap(), synth);
    // Binary
    let bin = io::to_binary(&synth);
    assert_eq!(io::from_binary(&bin).unwrap(), synth);
    // Binary is the most compact of the three.
    assert!(bin.len() < csv.len());
    assert!(bin.len() < jsonl.len());
}

#[test]
fn corrupted_inputs_are_rejected_not_misread() {
    let (_, synth) = small_setup();
    let mut bin = io::to_binary(&synth);
    // Flip the record count.
    bin[9] ^= 0xFF;
    assert!(io::from_binary(&bin).is_err());

    let mut csv = Vec::new();
    io::write_csv(&synth, &mut csv).unwrap();
    let mut text = String::from_utf8(csv).unwrap();
    text.push_str("not,a,valid,row\n");
    assert!(io::read_csv(text.as_bytes()).is_err());

    assert!(ModelSet::from_json("{\"method\":\"Nope\"}").is_err());

    // An ECDF loads through its constructor: no samples, or a non-finite
    // one, is an error, and an unsorted array is sorted, not misread.
    assert!(serde_json::from_str::<Ecdf>(r#"{"samples":[]}"#).is_err());
    assert!(serde_json::from_str::<Ecdf>(r#"{"samples":[1.0,null]}"#).is_err());
    let unsorted: Ecdf = serde_json::from_str(r#"{"samples":[3.0,1.0]}"#).expect("sorted on load");
    assert_eq!((unsorted.min(), unsorted.cdf(1.0)), (1.0, 0.5));
}

#[test]
fn model_snapshots_that_cannot_be_stepped_are_rejected_at_load() {
    let (models, _) = small_setup();
    let rejected = |set: &ModelSet| {
        let json = set.to_json().expect("serialize");
        ModelSet::from_json(&json)
            .expect_err("a snapshot the generator cannot step")
            .to_string()
    };
    let mut two_devices = models.clone();
    two_devices.devices.pop();
    assert!(rejected(&two_devices).contains("2 device models"));
    let mut swapped = models.clone();
    swapped.devices.swap(0, 1);
    assert!(rejected(&swapped).contains("at device index 0"));
    let mut short_day = models.clone();
    short_day.devices[2].hours.pop();
    assert!(rejected(&short_day).contains("23 hours"));
}
