//! Wire-codec coverage for every protocol message type that crosses the
//! transport, plus framing-edge cases: whatever a Byzantine peer puts on a
//! socket must decode to a value or an error, never a panic, and honest
//! encodings must round-trip bit-exactly.

use astro_brb::bracha::BrachaMsg;
use astro_brb::signed::SignedMsg;
use astro_brb::InstanceId;
use astro_consensus::pbft::PbftMsg;
use astro_core::astro1::Astro1Msg;
use astro_core::astro2::Astro2Msg;
use astro_core::batch::{Batch, CreditBundle, DepBatch, DepPayment, DependencyCertificate};
use astro_core::journal::Astro1State;
use astro_core::reconfig::{ClientRecord, ReconfigMsg, View};
use astro_types::auth::SimSig;
use astro_types::wire::{
    decode_exact, peek_frame_len, put_frame, take_frame, Wire, WireError, MAX_FRAME_LEN,
};
use astro_types::{Authenticator, MacAuthenticator, Payment, ReplicaId};

fn round_trip<T: Wire + PartialEq + core::fmt::Debug>(value: &T) {
    let bytes = value.to_wire_bytes();
    assert_eq!(bytes.len(), value.encoded_len(), "encoded_len must be exact");
    let back: T = decode_exact(&bytes).expect("canonical encoding decodes");
    assert_eq!(&back, value, "round trip must be identity");
}

fn sig(n: u8) -> SimSig {
    MacAuthenticator::new(ReplicaId(u32::from(n)), b"wire-tests".to_vec()).sign(&[n])
}

fn batch() -> Batch {
    Batch {
        payments: vec![
            Payment::new(1u64, 0u64, 2u64, 30u64),
            Payment::new(7u64, 4u64, 1u64, u64::MAX),
        ],
    }
}

fn certificate() -> DependencyCertificate<SimSig> {
    DependencyCertificate {
        bundle: vec![Payment::new(3u64, 2u64, 4u64, 9u64)],
        proofs: vec![(ReplicaId(0), sig(0)), (ReplicaId(2), sig(2))],
    }
}

fn dep_batch() -> DepBatch<SimSig> {
    DepBatch {
        entries: vec![
            DepPayment { payment: Payment::new(1u64, 0u64, 2u64, 5u64), deps: vec![] },
            DepPayment { payment: Payment::new(4u64, 1u64, 5u64, 6u64), deps: vec![certificate()] },
        ],
    }
}

/// One of each Bracha message: the payload rides PREPARE and ANSWER only.
fn bracha_messages() -> [BrachaMsg<Batch>; 5] {
    let id = InstanceId { source: 3, tag: 9 };
    [
        BrachaMsg::Prepare { id, payload: batch() },
        BrachaMsg::Echo { id, digest: [0xe0; 32] },
        BrachaMsg::Ready { id, digest: [0xd1; 32] },
        BrachaMsg::Request { id, digest: [0xc2; 32] },
        BrachaMsg::Answer { id, payload: batch() },
    ]
}

#[test]
fn bracha_messages_round_trip() {
    for msg in bracha_messages() {
        round_trip(&msg);
        let bytes = msg.to_wire_bytes();
        // Every strict prefix is an error, never a panic or a shorter
        // message; so is a trailing byte, and so is an unknown tag.
        for cut in 0..bytes.len() {
            assert!(decode_exact::<BrachaMsg<Batch>>(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_exact::<BrachaMsg<Batch>>(&padded).is_err());
        let mut unknown = bytes;
        unknown[0] = 5;
        assert!(matches!(
            decode_exact::<BrachaMsg<Batch>>(&unknown),
            Err(WireError::InvalidValue(_))
        ));
    }
    // A vote is 49 bytes whatever the batch behind it.
    assert_eq!(bracha_messages()[1].encoded_len(), 1 + 16 + 32);
}

proptest::proptest! {
    /// Whatever a Byzantine peer puts in a frame decodes to a message or
    /// an error.
    #[test]
    fn arbitrary_bytes_never_panic_the_bracha_decoder(
        tag in 0u8..8,
        bytes in proptest::collection::vec(proptest::any::<u8>(), 0..256),
    ) {
        // Half the inputs start with a plausible tag, so that decoding
        // gets past it.
        let tagged = [vec![tag], bytes.clone()].concat();
        for input in [bytes, tagged] {
            if let Ok(msg) = decode_exact::<BrachaMsg<Batch>>(&input) {
                proptest::prop_assert_eq!(msg.to_wire_bytes(), input);
            }
        }
    }
}

#[test]
fn signed_messages_round_trip() {
    let id = InstanceId { source: 1, tag: 0 };
    round_trip::<SignedMsg<DepBatch<SimSig>, SimSig>>(&SignedMsg::Prepare {
        id,
        payload: dep_batch(),
    });
    round_trip(&SignedMsg::<DepBatch<SimSig>, SimSig>::Ack { id, digest: [7u8; 32], sig: sig(1) });
    round_trip(&SignedMsg::Commit {
        id,
        payload: dep_batch(),
        proof: vec![(ReplicaId(0), sig(0)), (ReplicaId(1), sig(1)), (ReplicaId(3), sig(3))],
    });
}

#[test]
fn astro2_messages_round_trip() {
    let id = InstanceId { source: 2, tag: 5 };
    round_trip(&Astro2Msg::Brb(SignedMsg::Prepare { id, payload: dep_batch() }));
    round_trip(&Astro2Msg::<SimSig>::Credit(CreditBundle {
        bundle: vec![Payment::new(1u64, 0u64, 2u64, 3u64)],
        sig: sig(0),
    }));
    round_trip(&Astro2Msg::<SimSig>::Sync(ReconfigMsg::SyncRequest { settled: 7 }));
    round_trip(&Astro2Msg::<SimSig>::CreditAck {
        digests: vec![[0xab; 32], [0xcd; 32]],
        sig: sig(2),
    });
    round_trip(&Astro2Msg::<SimSig>::CreditRequest { since: 42 });
}

/// A realistic catch-up payload: the canonical snapshot encoding of a
/// settled ledger, as served over the wire.
fn sync_state_bytes() -> Vec<u8> {
    use astro_core::journal::LedgerState;
    Astro1State {
        ledger: LedgerState {
            initial_balance: astro_types::Amount(100),
            accounts: vec![
                (astro_types::ClientId(1), astro_types::Amount(70)),
                (astro_types::ClientId(2), astro_types::Amount(130)),
            ],
            xlogs: vec![(astro_types::ClientId(1), vec![Payment::new(1u64, 0u64, 2u64, 30u64)])],
        },
        pending: vec![Payment::new(5u64, 2u64, 1u64, 9u64)],
        next_tag: 4,
        cursors: vec![(0, 2), (3, 4)],
    }
    .to_wire_bytes()
}

#[test]
fn reconfig_messages_round_trip_every_variant() {
    let view = View { number: 3, members: vec![ReplicaId(0), ReplicaId(1), ReplicaId(2)] };
    let msgs: Vec<ReconfigMsg<SimSig>> = vec![
        ReconfigMsg::Join,
        ReconfigMsg::ViewProposal { view: view.clone(), sig: sig(1) },
        ReconfigMsg::StateTransfer {
            view_number: 3,
            records: vec![ClientRecord {
                payments: vec![Payment::new(1u64, 0u64, 2u64, 30u64)],
                balance: astro_types::Amount(70),
                owner: astro_types::ClientId(1),
            }],
        },
        ReconfigMsg::SyncRequest { settled: 42 },
        ReconfigMsg::SyncState { settled: 99, state: sync_state_bytes() },
    ];
    for msg in &msgs {
        round_trip(msg);
    }
    // The Astro I instantiation (unit signature) and its top-level enum.
    round_trip(&Astro1Msg::Sync(ReconfigMsg::SyncRequest { settled: 7 }));
    round_trip(&Astro1Msg::Sync(ReconfigMsg::SyncState { settled: 9, state: sync_state_bytes() }));
    round_trip(&Astro1Msg::Brb(BrachaMsg::Prepare {
        id: InstanceId { source: 1, tag: 2 },
        payload: batch(),
    }));
}

#[test]
fn sync_messages_survive_framing_and_reject_truncation() {
    let msg = Astro1Msg::Sync(ReconfigMsg::SyncState { settled: 8, state: sync_state_bytes() });
    let payload = msg.to_wire_bytes();
    // Through the transport framing intact.
    let mut framed = Vec::new();
    put_frame(&mut framed, &payload);
    let mut slice = framed.as_slice();
    let inner = take_frame(&mut slice).unwrap();
    assert_eq!(decode_exact::<Astro1Msg>(inner).unwrap(), msg);
    // Every strict prefix errors (or at worst yields a shorter valid
    // value for container types) — never a panic.
    for cut in 0..payload.len() {
        let mut slice = &payload[..cut];
        let _ = Astro1Msg::decode(&mut slice);
        let mut slice = &payload[..cut];
        let _ = Astro2Msg::<SimSig>::decode(&mut slice);
        let mut slice = &payload[..cut];
        let _ = ReconfigMsg::<SimSig>::decode(&mut slice);
    }
    // A trailing byte is rejected outright.
    let mut padded = payload.clone();
    padded.push(0);
    assert!(decode_exact::<Astro1Msg>(&padded).is_err());
    // Unknown tags at both enum levels.
    let mut bad_outer = payload.clone();
    bad_outer[0] = 0x66;
    assert!(matches!(decode_exact::<Astro1Msg>(&bad_outer), Err(WireError::InvalidValue(_))));
    let mut bad_inner = payload;
    bad_inner[1] = 0x77;
    assert!(matches!(decode_exact::<Astro1Msg>(&bad_inner), Err(WireError::InvalidValue(_))));
}

#[test]
fn oversized_sync_state_is_rejected_before_allocation() {
    // A Byzantine peer advertising a sync state larger than the sequence
    // bound must be rejected at the length prefix, before any allocation
    // proportional to the claim. Tag 4 = SyncState, settled, then the
    // Vec<u8> length prefix.
    let mut bytes = Vec::new();
    bytes.push(1u8); // Astro1Msg::Sync
    bytes.push(4u8); // ReconfigMsg::SyncState
    0u64.encode(&mut bytes); // settled
    u32::MAX.encode(&mut bytes); // absurd state length
    bytes.extend_from_slice(&[0u8; 64]);
    assert!(matches!(decode_exact::<Astro1Msg>(&bytes), Err(WireError::InvalidValue(_))));
}

#[test]
fn pbft_messages_round_trip() {
    round_trip(&PbftMsg::Forward(Payment::new(9u64, 1u64, 8u64, 2u64)));
    round_trip(&PbftMsg::PrePrepare { view: 0, seq: 1, batch: batch() });
    round_trip(&PbftMsg::Prepare { view: 2, seq: 3, digest: [9u8; 32] });
    round_trip(&PbftMsg::Commit { view: 2, seq: 3, digest: [9u8; 32] });
    round_trip(&PbftMsg::ViewChange {
        new_view: 4,
        last_exec: 7,
        suffix: vec![(8, batch()), (9, batch())],
    });
    round_trip(&PbftMsg::NewView { view: 4, proposals: vec![(8, batch())] });
}

#[test]
fn batch_payload_types_round_trip() {
    round_trip(&batch());
    round_trip(&certificate());
    round_trip(&dep_batch());
    round_trip(&DepPayment::<SimSig> {
        payment: Payment::new(0u64, 0u64, 0u64, 0u64),
        deps: vec![],
    });
    round_trip(&CreditBundle { bundle: vec![], sig: sig(5) });
}

#[test]
fn truncation_of_any_message_errors_cleanly() {
    // Every strict prefix of a valid encoding must produce an error (or,
    // for container types, possibly a shorter valid value — never a panic).
    let encodings: Vec<Vec<u8>> = vec![
        BrachaMsg::Prepare { id: InstanceId { source: 0, tag: 0 }, payload: batch() }
            .to_wire_bytes(),
        Astro2Msg::<SimSig>::Credit(CreditBundle { bundle: vec![], sig: sig(1) }).to_wire_bytes(),
        Astro2Msg::<SimSig>::CreditAck { digests: vec![[3; 32]], sig: sig(2) }.to_wire_bytes(),
        PbftMsg::PrePrepare { view: 0, seq: 1, batch: batch() }.to_wire_bytes(),
    ];
    for bytes in encodings {
        for cut in 0..bytes.len() {
            let mut slice = &bytes[..cut];
            let _ = BrachaMsg::<Batch>::decode(&mut slice);
            let mut slice = &bytes[..cut];
            let _ = Astro2Msg::<SimSig>::decode(&mut slice);
            let mut slice = &bytes[..cut];
            let _ = PbftMsg::decode(&mut slice);
        }
    }
}

#[test]
fn unknown_tags_are_rejected() {
    let mut bytes = BrachaMsg::Prepare { id: InstanceId { source: 0, tag: 0 }, payload: batch() }
        .to_wire_bytes();
    bytes[0] = 0xff;
    assert!(matches!(decode_exact::<BrachaMsg<Batch>>(&bytes), Err(WireError::InvalidValue(_))));
    let mut bytes =
        Astro2Msg::<SimSig>::Credit(CreditBundle { bundle: vec![], sig: sig(0) }).to_wire_bytes();
    bytes[0] = 0x7e;
    assert!(matches!(decode_exact::<Astro2Msg<SimSig>>(&bytes), Err(WireError::InvalidValue(_))));
}

#[test]
fn framed_messages_round_trip_through_the_transport_framing() {
    let msg = BrachaMsg::Answer { id: InstanceId { source: 1, tag: 2 }, payload: batch() };
    let payload = msg.to_wire_bytes();
    let mut framed = Vec::new();
    put_frame(&mut framed, &payload);
    assert_eq!(peek_frame_len(&framed).unwrap(), Some(payload.len()));
    let mut slice = framed.as_slice();
    let inner = take_frame(&mut slice).unwrap();
    assert!(slice.is_empty());
    assert_eq!(decode_exact::<BrachaMsg<Batch>>(inner).unwrap(), msg);
}

#[test]
fn oversized_frame_from_a_byzantine_peer_is_rejected_before_allocation() {
    // A 4 GiB length prefix must be rejected by inspecting 4 bytes.
    let header = (u32::MAX).to_le_bytes();
    assert!(matches!(peek_frame_len(&header), Err(WireError::InvalidValue(_))));
    let mut on_the_limit = Vec::new();
    ((MAX_FRAME_LEN as u32) + 1).encode(&mut on_the_limit);
    assert!(matches!(peek_frame_len(&on_the_limit), Err(WireError::InvalidValue(_))));
    // Exactly at the limit is fine.
    let mut at_limit = Vec::new();
    (MAX_FRAME_LEN as u32).encode(&mut at_limit);
    assert_eq!(peek_frame_len(&at_limit).unwrap(), Some(MAX_FRAME_LEN));
}
