//! Error types for policy construction and validation.

use std::error::Error as StdError;
use std::fmt;

use crate::ids::{ContractId, EndpointId, EpgId, FilterId, ObjectId, SwitchId, TenantId, VrfId};

/// Errors produced while building or validating a [`PolicyUniverse`].
///
/// [`PolicyUniverse`]: crate::universe::PolicyUniverse
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// An EPG references a VRF that does not exist in the universe.
    UnknownVrf {
        /// The EPG holding the dangling reference.
        epg: EpgId,
        /// The missing VRF.
        vrf: VrfId,
    },
    /// An endpoint references an EPG that does not exist.
    UnknownEpg {
        /// The endpoint holding the dangling reference.
        endpoint: EndpointId,
        /// The missing EPG.
        epg: EpgId,
    },
    /// An endpoint is attached to a switch that does not exist.
    UnknownSwitch {
        /// The endpoint holding the dangling reference.
        endpoint: EndpointId,
        /// The missing switch.
        switch: SwitchId,
    },
    /// A contract references a filter that does not exist.
    UnknownFilter {
        /// The contract holding the dangling reference.
        contract: ContractId,
        /// The missing filter.
        filter: FilterId,
    },
    /// A contract binding references a contract that does not exist.
    UnknownContract {
        /// The missing contract.
        contract: ContractId,
    },
    /// A contract binding references an EPG that does not exist.
    UnknownBindingEpg {
        /// The contract of the binding.
        contract: ContractId,
        /// The missing EPG.
        epg: EpgId,
    },
    /// Two EPGs bound by a contract live in different VRFs.
    CrossVrfBinding {
        /// The contract of the binding.
        contract: ContractId,
        /// The consumer-side EPG.
        consumer: EpgId,
        /// The provider-side EPG.
        provider: EpgId,
    },
    /// A tenant with the same id was defined twice.
    DuplicateTenant {
        /// The duplicated tenant.
        tenant: TenantId,
    },
    /// An object with the same id was defined twice.
    DuplicateObject {
        /// The duplicated object.
        object: ObjectId,
    },
    /// An endpoint with the same id was defined twice.
    DuplicateEndpoint {
        /// The duplicated endpoint.
        endpoint: EndpointId,
    },
    /// A contract contains no filters, so it can never produce rules.
    EmptyContract {
        /// The offending contract.
        contract: ContractId,
    },
    /// A filter contains no entries, so it can never produce rules.
    EmptyFilter {
        /// The offending filter.
        filter: FilterId,
    },
    /// A lookup for an object that is not part of the universe.
    NoSuchObject {
        /// The missing object.
        object: ObjectId,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::UnknownVrf { epg, vrf } => {
                write!(f, "{epg} references unknown {vrf}")
            }
            PolicyError::UnknownEpg { endpoint, epg } => {
                write!(f, "{endpoint} references unknown {epg}")
            }
            PolicyError::UnknownSwitch { endpoint, switch } => {
                write!(f, "{endpoint} attached to unknown {switch}")
            }
            PolicyError::UnknownFilter { contract, filter } => {
                write!(f, "{contract} references unknown {filter}")
            }
            PolicyError::UnknownContract { contract } => {
                write!(f, "binding references unknown {contract}")
            }
            PolicyError::UnknownBindingEpg { contract, epg } => {
                write!(f, "binding for {contract} references unknown {epg}")
            }
            PolicyError::CrossVrfBinding {
                contract,
                consumer,
                provider,
            } => write!(
                f,
                "{contract} binds {consumer} and {provider} which live in different vrfs"
            ),
            PolicyError::DuplicateTenant { tenant } => {
                write!(f, "{tenant} defined more than once")
            }
            PolicyError::DuplicateObject { object } => {
                write!(f, "object {object} defined more than once")
            }
            PolicyError::DuplicateEndpoint { endpoint } => {
                write!(f, "endpoint {endpoint} defined more than once")
            }
            PolicyError::EmptyContract { contract } => {
                write!(f, "{contract} has no filters")
            }
            PolicyError::EmptyFilter { filter } => {
                write!(f, "{filter} has no entries")
            }
            PolicyError::NoSuchObject { object } => {
                write!(f, "no such object {object}")
            }
        }
    }
}

impl StdError for PolicyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_involved_ids() {
        let err = PolicyError::UnknownVrf {
            epg: EpgId::new(3),
            vrf: VrfId::new(9),
        };
        let msg = err.to_string();
        assert!(msg.contains("epg-3"));
        assert!(msg.contains("vrf-9"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_error<E: StdError + Send + Sync + 'static>() {}
        assert_error::<PolicyError>();
    }

    #[test]
    fn cross_vrf_display_lists_both_epgs() {
        let err = PolicyError::CrossVrfBinding {
            contract: ContractId::new(1),
            consumer: EpgId::new(2),
            provider: EpgId::new(3),
        };
        let msg = err.to_string();
        assert!(msg.contains("contract-1"));
        assert!(msg.contains("epg-2"));
        assert!(msg.contains("epg-3"));
    }

    #[test]
    fn duplicate_object_display() {
        let err = PolicyError::DuplicateObject {
            object: ObjectId::Filter(FilterId::new(4)),
        };
        assert!(err.to_string().contains("filter-4"));
    }

    #[test]
    fn duplicate_tenant_display_names_the_tenant() {
        let err = PolicyError::DuplicateTenant {
            tenant: TenantId::new(3),
        };
        assert_eq!(err.to_string(), "tenant-3 defined more than once");
    }
}
