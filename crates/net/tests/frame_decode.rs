//! The frame reader on hostile input: whatever bytes arrive, a read
//! returns a frame or a typed `WireError` without panicking, and the
//! reused payload buffer never holds more than the payload cap.

use modsram_bigint::UBig;
use modsram_core::dispatch::MulJob;
use modsram_net::frame::{encode_submit_batch, read_frame_into, HEADER_LEN, MAGIC, VERSION};
use modsram_net::{Frame, WireError};
use proptest::prelude::*;

const MAX_PAYLOAD: u32 = 256;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn reading_arbitrary_bytes_is_total(
        (raw, frame_type, batch) in (any::<bool>(), 0u8..=12, any::<bool>()),
        (count, huge_count) in (0u32..6, any::<bool>()),
        (len_slack, oversized) in (-16i64..=16, any::<bool>()),
        noise in prop::collection::vec(any::<u8>(), 0..300),
        cut in any::<prop::sample::Index>(),
    ) {
        // The body: noise, or a real 3-job batch whose count lies.
        let mut body = noise.clone();
        if batch {
            let job = MulJob::new(UBig::from(3u64), UBig::from(5u64), UBig::from(97u64));
            body.clear();
            encode_submit_batch(&mut body, 1, [&job, &job, &job].into_iter());
            body.drain(..HEADER_LEN);
            let count = if huge_count { u32::MAX - count } else { count };
            body[8..12].copy_from_slice(&count.to_le_bytes());
        }
        let declared = match oversized {
            true => MAX_PAYLOAD + 1 + len_slack.unsigned_abs() as u32,
            false => (body.len() as i64 + len_slack).max(0) as u32,
        };
        let mut stream = noise;
        if !raw {
            let header = [VERSION, frame_type, 0, 0];
            stream = [&MAGIC[..], &header, &declared.to_le_bytes(), &body[..]].concat();
        }
        stream.truncate(cut.index(stream.len() + 1));

        let (mut reader, mut payload) = (stream.as_slice(), Vec::new());
        let first = read_frame_into(&mut reader, MAX_PAYLOAD, &mut payload);
        if !raw && stream.len() >= HEADER_LEN && declared > MAX_PAYLOAD {
            prop_assert!(matches!(first, Err(WireError::FrameTooLarge { .. })));
        } else if !raw && (1..HEADER_LEN + declared as usize).contains(&stream.len()) {
            prop_assert!(matches!(first, Err(WireError::Truncated)));
        }
        let mut outcome = first.map(|f| f.is_some());
        while outcome.as_ref().is_ok_and(|&more| more) {
            prop_assert!(payload.len() <= MAX_PAYLOAD as usize);
            outcome = read_frame_into(&mut reader, MAX_PAYLOAD, &mut payload).map(|f| f.is_some());
        }
        prop_assert!(payload.len() <= MAX_PAYLOAD as usize);
        let _ = Frame::decode(frame_type, &body);
    }
}
