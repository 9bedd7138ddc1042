//! The serializer's output on the generated corpora is pinned by hash:
//! compact and pretty XML of each dataset family must stay byte for
//! byte what it has always been, whatever the serializer's internals.

use lotusx_datagen::{generate, Dataset};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn generated_corpora_serialize_to_pinned_bytes() {
    // (dataset, scale, compact length, compact hash, pretty length,
    // pretty hash), all at corpus seed 42.
    let pinned = [
        (
            Dataset::DblpLike,
            16,
            1_388_014,
            0xe164_691a_59ce_3cc2,
            1_615_595,
            0x25d2_bd9a_6db6_d262,
        ),
        (
            Dataset::TreebankLike,
            4,
            415_019,
            0xb920_05db_c31b_3e45,
            1_054_119,
            0x0d1f_13b0_244e_a869,
        ),
        (
            Dataset::XmarkLike,
            2,
            191_091,
            0xeedb_f258_416c_1ed6,
            266_363,
            0x762a_13ef_ea03_72b2,
        ),
    ];
    for (dataset, scale, compact_len, compact_hash, pretty_len, pretty_hash) in pinned {
        let doc = generate(dataset, scale, 42);
        let compact = doc.to_xml();
        let pretty = doc.to_xml_pretty();
        assert_eq!(
            compact.len(),
            compact_len,
            "{dataset:?}:{scale} compact length"
        );
        assert_eq!(
            fnv1a(compact.as_bytes()),
            compact_hash,
            "{dataset:?}:{scale} compact bytes"
        );
        assert_eq!(
            pretty.len(),
            pretty_len,
            "{dataset:?}:{scale} pretty length"
        );
        assert_eq!(
            fnv1a(pretty.as_bytes()),
            pretty_hash,
            "{dataset:?}:{scale} pretty bytes"
        );
    }
}
