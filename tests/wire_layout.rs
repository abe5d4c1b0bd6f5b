//! Golden byte pins for the wire layouts nothing else freezes.
//!
//! The committed corpus (`tests/corpus`) holds requests, views, snapshots and
//! journals, so a layout change on the *response* side — `ServerResponse`,
//! `ServerError`, `SessionError`, `ReportDelta` — or in any enum's tag space
//! would still pass every round-trip test: encode and decode would move
//! together. Each case here pins one value per variant of every type whose
//! layout is declared with `wire_struct!`/`wire_enum!` outside the policy
//! layer, plus `ResyncRequest`, against the hex its encoding had when the
//! pins were recorded:
//!
//! * `to_bytes(value)` must equal the golden bytes, and
//! * `from_bytes(golden)` must give the value back;
//!
//! and each enum's first unused tag must be rejected as `InvalidTag` naming
//! the type. The hex is append-only history: never regenerate it to make a
//! failing case pass — a failure means the bytes on the wire moved.

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::sync::Arc;

use scout_core::{
    scout_localize, CorrelationEngine, CorrelationReport, Evidence, Hypothesis, ObjectDiagnosis,
    ReportDelta, ResyncRequest, RiskModel, RootCause, ScoutConfig, ScoutReport, SessionError,
};
use scout_equiv::{NetworkCheckResult, SwitchCheckResult};
use scout_fabric::wire::{from_bytes, to_bytes, Wire, WireError};
use scout_fabric::{
    ChangeAction, ChangeLog, ChangeLogEntry, EventBatch, FabricEvent, FaultKind, FaultLog,
    FaultLogEntry, FullSync, Severity, Timestamp,
};
use scout_policy::{
    Action, ContractId, EpgId, EpgPair, FilterId, LogicalRule, ObjectId, PolicyUniverse, PortRange,
    Protocol, RuleMatch, RuleProvenance, SwitchEpgPair, SwitchId, TcamRule, VrfId,
};
use scout_server::{ServerError, ServerRequest, ServerResponse};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// `value` encodes to exactly `golden`, and `golden` decodes to `value`.
fn pin<T: Wire + PartialEq + Debug>(value: &T, golden: &str) {
    assert_eq!(hex(&to_bytes(value)), golden, "encoding of {value:?} moved");
    let decoded: T = from_bytes(&unhex(golden)).expect("golden bytes decode");
    assert_eq!(&decoded, value, "golden bytes decode to a different value");
}

/// The first tag past `T`'s tag space is a typed rejection naming `T`.
fn first_unused_tag_is_rejected<T: Wire + Debug>(tag: u8, what: &'static str) {
    assert_eq!(
        from_bytes::<T>(&[tag]).map(|_| ()),
        Err(WireError::InvalidTag { what, tag })
    );
}

const S2: SwitchId = SwitchId::new(2);

fn t(ticks: u64) -> Timestamp {
    Timestamp::new(ticks)
}

fn empty_universe() -> PolicyUniverse {
    PolicyUniverse::builder().build().expect("empty universe")
}

fn tcam_rule() -> TcamRule {
    TcamRule {
        matcher: RuleMatch::new(
            VrfId::new(1),
            EpgId::new(2),
            EpgId::new(3),
            Protocol::Tcp,
            PortRange::new(80, 443),
        ),
        action: Action::Deny,
        priority: 7,
    }
}

fn logical_rule() -> LogicalRule {
    LogicalRule::new(
        S2,
        tcam_rule(),
        RuleProvenance::new(
            VrfId::new(1),
            EpgId::new(2),
            EpgId::new(3),
            ContractId::new(4),
            FilterId::new(5),
        ),
    )
}

fn fault_entry() -> FaultLogEntry {
    FaultLogEntry {
        time: t(12),
        switch: None,
        kind: FaultKind::TcamOverflow,
        severity: Severity::Critical,
        cleared_at: None,
        message: "full".into(),
    }
}

fn physical_cause() -> RootCause {
    RootCause::Physical {
        kind: FaultKind::TcamOverflow,
        switch: Some(S2),
        observed_at: t(12),
        message: "full".into(),
    }
}

/// `{Filter 5: FullCover}` over one failed observation.
fn hypothesis() -> Hypothesis {
    let mut model = RiskModel::new();
    model.mark_failed(
        EpgPair::new(EpgId::new(2), EpgId::new(3)),
        ObjectId::Filter(FilterId::new(5)),
    );
    scout_localize(&model, &ChangeLog::new(), ScoutConfig::default())
}

/// One diagnosis: Filter 5 ← the controller-level TCAM overflow.
fn correlation() -> CorrelationReport {
    let mut faults = FaultLog::new();
    faults.push(fault_entry());
    CorrelationEngine::new().correlate(&hypothesis(), &empty_universe(), &ChangeLog::new(), &faults)
}

fn report() -> ScoutReport {
    let mut check = NetworkCheckResult::new();
    check.per_switch.insert(
        S2,
        SwitchCheckResult {
            switch: S2,
            equivalent: false,
            missing_rules: vec![logical_rule()],
            unexpected_rules: Vec::new(),
        },
    );
    ScoutReport {
        check,
        observations: BTreeSet::from([SwitchEpgPair::new(
            S2,
            EpgPair::new(EpgId::new(2), EpgId::new(3)),
        )]),
        suspect_objects: BTreeSet::from([
            ObjectId::Epg(EpgId::new(2)),
            ObjectId::Filter(FilterId::new(5)),
        ]),
        hypothesis: hypothesis(),
        diagnosis: correlation(),
    }
}

fn delta() -> ReportDelta {
    ReportDelta {
        epoch: 6,
        rechecked: BTreeSet::from([S2]),
        newly_missing: vec![logical_rule()],
        restored: Vec::new(),
        hypothesis_added: BTreeSet::from([ObjectId::Filter(FilterId::new(5))]),
        hypothesis_removed: BTreeSet::from([ObjectId::Epg(EpgId::new(2))]),
        diagnosis_changed: BTreeSet::from([ObjectId::Switch(SwitchId::new(9))]),
        consistent: false,
    }
}

/// A full read of an undeployed, empty fabric at universe version 7. The
/// view's own layout is frozen by the corpus; here it is only a payload.
fn empty_sync() -> FullSync {
    let mut bytes = 7u64.to_le_bytes().to_vec();
    bytes.extend([0u8; 8 * 8 + 3 * 8]);
    from_bytes(&bytes).expect("empty view decodes")
}

#[test]
fn object_id() {
    pin(&ObjectId::Vrf(VrfId::new(1)), "0001000000");
    pin(&ObjectId::Epg(EpgId::new(2)), "0102000000");
    pin(&ObjectId::Contract(ContractId::new(3)), "0203000000");
    pin(&ObjectId::Filter(FilterId::new(4)), "0304000000");
    pin(&ObjectId::Switch(SwitchId::new(5)), "0405000000");
    first_unused_tag_is_rejected::<ObjectId>(5, "ObjectId");
}

#[test]
fn fabric_event() {
    pin(
        &FabricEvent::PolicyUpdate {
            version: 9,
            universe: Arc::new(empty_universe()),
        },
        "00090000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    );
    pin(
        &FabricEvent::TcamSync {
            switch: S2,
            rules: vec![tcam_rule()],
        },
        "01020000000100000000000000010000000200000003000000015000bb01010700",
    );
    pin(
        &FabricEvent::ChangeEvents(vec![ChangeLogEntry {
            time: t(11),
            object: ObjectId::Filter(FilterId::new(5)),
            action: ChangeAction::Modify,
            switch: Some(S2),
            detail: "edit".into(),
        }]),
        "0201000000000000000b000000000000000305000000010102000000040000000000000065646974",
    );
    pin(
        &FabricEvent::FaultEvents {
            raised: vec![fault_entry()],
            cleared: vec![(0, t(13))],
        },
        "0301000000000000000c0000000000000000000200040000000000000066756c6c010000000000000000000000000000000d00000000000000",
    );
    first_unused_tag_is_rejected::<FabricEvent>(4, "FabricEvent");
}

#[test]
fn evidence() {
    pin(&Evidence::FullCover, "00");
    pin(
        &Evidence::RecentChange { changed_at: t(11) },
        "010b00000000000000",
    );
    pin(&Evidence::ScoreCover, "02");
    first_unused_tag_is_rejected::<Evidence>(3, "Evidence");
}

#[test]
fn hypothesis_and_diagnosis() {
    pin(&hypothesis(), "01000000000000000305000000000100000000000000010000000000000000000000000000000000000000000000");
    pin(
        &physical_cause(),
        "000001020000000c00000000000000040000000000000066756c6c",
    );
    pin(&RootCause::Unknown, "01");
    first_unused_tag_is_rejected::<RootCause>(2, "RootCause");
    pin(
        &ObjectDiagnosis {
            object: ObjectId::Filter(FilterId::new(5)),
            causes: vec![physical_cause(), RootCause::Unknown],
        },
        "03050000000200000000000000000001020000000c00000000000000040000000000000066756c6c01",
    );
    pin(
        &correlation(),
        "0100000000000000030500000001000000000000000000000c00000000000000040000000000000066756c6c",
    );
}

#[test]
fn report_delta() {
    pin(&delta(), "0600000000000000010000000000000002000000010000000000000002000000010000000200000003000000015000bb010107000100000002000000030000000400000005000000000000000000000001000000000000000305000000010000000000000001020000000100000000000000040900000000");
}

#[test]
fn session_error_and_resync_request() {
    let resync = ResyncRequest {
        from_epoch: 3,
        observed_epoch: 7,
    };
    pin(&resync, "03000000000000000700000000000000");
    pin(
        &SessionError::EpochOutOfOrder {
            expected: 3,
            got: 1,
        },
        "0003000000000000000100000000000000",
    );
    pin(
        &SessionError::EpochGap { resync },
        "0103000000000000000700000000000000",
    );
    pin(
        &SessionError::UnknownSwitch {
            epoch: 4,
            switch: SwitchId::new(42),
        },
        "0204000000000000002a000000",
    );
    pin(
        &SessionError::FaultIndexOutOfRange {
            epoch: 5,
            index: 9,
            len: 2,
        },
        "03050000000000000009000000000000000200000000000000",
    );
    first_unused_tag_is_rejected::<SessionError>(4, "SessionError");
}

#[test]
fn server_request() {
    pin(
        &ServerRequest::OpenSession {
            tenant: 1,
            universe: empty_universe(),
        },
        "00010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    );
    pin(
        &ServerRequest::Ingest {
            tenant: 2,
            batch: EventBatch::new(
                3,
                vec![FabricEvent::TcamSync {
                    switch: S2,
                    rules: Vec::new(),
                }],
            ),
        },
        "0102000000000000000300000000000000010000000000000001020000000000000000000000",
    );
    pin(
        &ServerRequest::Resync {
            tenant: 3,
            epoch: 9,
            sync: empty_sync(),
        },
        "0203000000000000000900000000000000070000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
    );
    pin(
        &ServerRequest::Checkpoint { tenant: 4 },
        "030400000000000000",
    );
    pin(&ServerRequest::Query { tenant: 5 }, "040500000000000000");
    pin(
        &ServerRequest::CloseSession { tenant: 6 },
        "050600000000000000",
    );
    first_unused_tag_is_rejected::<ServerRequest>(6, "ServerRequest");
}

#[test]
fn server_response() {
    pin(
        &ServerResponse::Opened {
            tenant: 1,
            epoch: 0,
        },
        "0001000000000000000000000000000000",
    );
    pin(
        &ServerResponse::Ingested {
            tenant: 2,
            delta: delta(),
        },
        "0102000000000000000600000000000000010000000000000002000000010000000000000002000000010000000200000003000000015000bb010107000100000002000000030000000400000005000000000000000000000001000000000000000305000000010000000000000001020000000100000000000000040900000000",
    );
    pin(
        &ServerResponse::Queued {
            tenant: 3,
            depth: 4,
        },
        "0203000000000000000400000000000000",
    );
    pin(
        &ServerResponse::Resynced {
            tenant: 4,
            delta: delta(),
        },
        "0304000000000000000600000000000000010000000000000002000000010000000000000002000000010000000200000003000000015000bb010107000100000002000000030000000400000005000000000000000000000001000000000000000305000000010000000000000001020000000100000000000000040900000000",
    );
    pin(
        &ServerResponse::Checkpointed {
            tenant: 5,
            epoch: 7,
        },
        "0405000000000000000700000000000000",
    );
    pin(
        &ServerResponse::Report {
            tenant: 6,
            epoch: 8,
            report: report(),
        },
        "050600000000000000080000000000000001000000000000000200000000010000000000000002000000010000000200000003000000015000bb01010700010000000200000003000000040000000500000000000000000000000100000000000000020000000200000003000000020000000000000001020000000305000000010000000000000003050000000001000000000000000100000000000000000000000000000000000000000000000100000000000000030500000001000000000000000000000c00000000000000040000000000000066756c6c",
    );
    pin(
        &ServerResponse::Closed {
            tenant: 7,
            epoch: 9,
        },
        "0607000000000000000900000000000000",
    );
    pin(
        &ServerResponse::Error(ServerError::Shed {
            tenant: 8,
            retry_hint: 2,
        }),
        "070008000000000000000200000000000000",
    );
    first_unused_tag_is_rejected::<ServerResponse>(8, "ServerResponse");
}

#[test]
fn server_error() {
    pin(
        &ServerError::Shed {
            tenant: 1,
            retry_hint: 3,
        },
        "0001000000000000000300000000000000",
    );
    pin(
        &ServerError::UnknownTenant { tenant: 2 },
        "010200000000000000",
    );
    pin(
        &ServerError::TenantExists { tenant: 3 },
        "020300000000000000",
    );
    pin(
        &ServerError::Session {
            tenant: 4,
            error: SessionError::EpochGap {
                resync: ResyncRequest {
                    from_epoch: 5,
                    observed_epoch: 9,
                },
            },
        },
        "0304000000000000000105000000000000000900000000000000",
    );
    pin(
        &ServerError::WrongOwner {
            tenant: 5,
            owner: 2,
        },
        "0405000000000000000200000000000000",
    );
    pin(
        &ServerError::BadRequest {
            reason: "not wire".into(),
        },
        "0508000000000000006e6f742077697265",
    );
    pin(
        &ServerError::Storage {
            tenant: 6,
            reason: "torn".into(),
        },
        "0606000000000000000400000000000000746f726e",
    );
    first_unused_tag_is_rejected::<ServerError>(7, "ServerError");
}
