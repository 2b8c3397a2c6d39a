//! The uploading-server pool: privileged paths and admission control (§2.1).

use odx_net::Isp;

/// Where a fetch was admitted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Served by a same-ISP uploading server — the privileged path.
    Privileged {
        /// ISP whose pool serves the flow.
        isp: Isp,
        /// Rate granted (KBps).
        rate_kbps: f64,
    },
    /// Served by an alternative server in a different ISP — the flow crosses
    /// the ISP barrier.
    CrossIsp {
        /// ISP whose pool serves the flow.
        server_isp: Isp,
        /// Rate granted (KBps), already barrier-limited by the caller.
        rate_kbps: f64,
    },
    /// All uploading servers are out of bandwidth: the request is rejected
    /// outright (Xuanfeng never degrades active flows, §2.1).
    Rejected,
}

impl Admission {
    /// The granted rate; zero when rejected.
    pub fn rate_kbps(&self) -> f64 {
        match self {
            Admission::Privileged { rate_kbps, .. } | Admission::CrossIsp { rate_kbps, .. } => {
                *rate_kbps
            }
            Admission::Rejected => 0.0,
        }
    }

    /// The serving pool's ISP, if admitted.
    pub fn server_isp(&self) -> Option<Isp> {
        match self {
            Admission::Privileged { isp, .. } => Some(*isp),
            Admission::CrossIsp { server_isp, .. } => Some(*server_isp),
            Admission::Rejected => None,
        }
    }
}

/// Fleet-wide utilization above which "all the uploading servers have
/// exhausted their upload bandwidth" (§2.1) and new fetches are rejected
/// instead of spilled to an alternative server.
const REJECT_UTILIZATION: f64 = 0.97;

/// Per-ISP upload capacity with reserve-on-admit accounting.
#[derive(Debug, Clone)]
pub struct UploadPool {
    capacity: [f64; 4],
    in_use: [f64; 4],
    floor: f64,
}

impl UploadPool {
    /// A pool with `total_kbps` split across the four major ISPs. `floor` is
    /// the smallest grant worth admitting; anything lower rejects.
    pub fn new(total_kbps: f64, split: [f64; 4], floor: f64) -> Self {
        assert!(total_kbps > 0.0, "capacity must be positive");
        let capacity = [
            total_kbps * split[0],
            total_kbps * split[1],
            total_kbps * split[2],
            total_kbps * split[3],
        ];
        UploadPool { capacity, in_use: [0.0; 4], floor }
    }

    /// Remaining capacity in an ISP's pool (KBps).
    pub fn headroom(&self, isp: Isp) -> f64 {
        match isp.major_index() {
            Some(i) => (self.capacity[i] - self.in_use[i]).max(0.0),
            None => 0.0,
        }
    }

    /// Total remaining capacity (KBps).
    pub fn total_headroom(&self) -> f64 {
        Isp::MAJORS.iter().map(|&i| self.headroom(i)).sum()
    }

    /// Total capacity across the four ISP pools (KBps).
    pub(crate) fn total_capacity(&self) -> f64 {
        self.capacity.iter().sum()
    }

    /// Total capacity in use (KBps) — the Fig 11 burden at this instant.
    pub fn total_in_use(&self) -> f64 {
        self.in_use.iter().sum()
    }

    /// Try to admit a fetch for a user in `user_isp` wanting `desired_kbps`.
    ///
    /// Xuanfeng "sets no limitation on the user's fetching speed" and, when
    /// out of bandwidth, "temporarily rejects new fetching requests rather
    /// than degrade the speeds of active downloads" (§2.1) — so admission is
    /// all-or-nothing: the flow gets its full desired rate from some pool or
    /// it is rejected. Selection order: a same-ISP server if the user is
    /// inside a major ISP and that pool can carry the flow; otherwise the
    /// least-loaded alternative pool (standing in for "shortest network
    /// latency"), whose path crosses the ISP barrier — the caller is
    /// expected to have already folded the barrier cap into `desired_kbps`
    /// for that case via `UploadPool::would_cross_barrier`.
    ///
    /// The granted rate is reserved until [`UploadPool::release`].
    /// `cross_kbps` is the rate the flow would get on a barrier-crossing
    /// path (`min(desired, barrier sample)`), used when the home pool cannot
    /// carry the full rate.
    pub fn admit(&mut self, user_isp: Isp, desired_kbps: f64, cross_kbps: f64) -> Admission {
        let desired = desired_kbps.max(self.floor);
        if let Some(i) = user_isp.major_index() {
            if self.capacity[i] - self.in_use[i] >= desired {
                self.in_use[i] += desired;
                return Admission::Privileged { isp: user_isp, rate_kbps: desired };
            }
        }
        // At the peak point all servers are effectively exhausted: reject
        // rather than squeeze flows into the last few percent (§2.1).
        let total_cap: f64 = self.capacity.iter().sum();
        if self.total_in_use() >= REJECT_UTILIZATION * total_cap {
            return Admission::Rejected;
        }
        // Alternative server (§2.1): the lowest-latency major pool that can
        // still carry the flow, reached across the ISP barrier.
        let cross = cross_kbps.min(desired).max(self.floor);
        let candidates: Vec<Isp> =
            Isp::MAJORS.into_iter().filter(|&isp| self.headroom(isp) >= cross).collect();
        match odx_net::latency::nearest_major(user_isp, &candidates) {
            Some(server) => {
                let i = server.major_index().expect("major");
                self.in_use[i] += cross;
                Admission::CrossIsp { server_isp: server, rate_kbps: cross }
            }
            None => Admission::Rejected,
        }
    }

    /// Release a previously admitted flow's reservation.
    pub fn release(&mut self, server_isp: Isp, rate_kbps: f64) {
        if let Some(i) = server_isp.major_index() {
            self.in_use[i] = (self.in_use[i] - rate_kbps).max(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> UploadPool {
        UploadPool::new(1000.0, [0.25, 0.25, 0.25, 0.25], 10.0)
    }

    #[test]
    fn same_isp_users_get_privileged_paths() {
        let mut p = pool();
        match p.admit(Isp::Unicom, 100.0, 100.0) {
            Admission::Privileged { isp, rate_kbps } => {
                assert_eq!(isp, Isp::Unicom);
                assert_eq!(rate_kbps, 100.0);
            }
            other => panic!("expected privileged, got {other:?}"),
        }
        assert_eq!(p.headroom(Isp::Unicom), 150.0);
    }

    #[test]
    fn outside_users_cross_the_barrier() {
        let mut p = pool();
        match p.admit(Isp::Other, 50.0, 30.0) {
            Admission::CrossIsp { rate_kbps, .. } => assert_eq!(rate_kbps, 30.0),
            other => panic!("expected cross-ISP, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_home_pool_spills_to_alternative() {
        let mut p = pool();
        p.admit(Isp::Unicom, 250.0, 250.0); // exhaust Unicom's pool
        match p.admit(Isp::Unicom, 50.0, 35.0) {
            Admission::CrossIsp { server_isp, .. } => assert_ne!(server_isp, Isp::Unicom),
            other => panic!("expected spill, got {other:?}"),
        }
    }

    #[test]
    fn full_pools_reject() {
        let mut p = pool();
        for isp in Isp::MAJORS {
            p.admit(isp, 250.0, 250.0);
        }
        assert_eq!(p.admit(Isp::Telecom, 50.0, 35.0), Admission::Rejected);
        assert_eq!(p.admit(Isp::Other, 50.0, 30.0), Admission::Rejected);
        assert!(p.total_headroom() < 1.0);
    }

    #[test]
    fn release_restores_capacity() {
        let mut p = pool();
        let adm = p.admit(Isp::Mobile, 200.0, 200.0);
        assert_eq!(p.total_in_use(), 200.0);
        p.release(adm.server_isp().unwrap(), adm.rate_kbps());
        assert_eq!(p.total_in_use(), 0.0);
        assert_eq!(p.headroom(Isp::Mobile), 250.0);
    }

    #[test]
    fn no_partial_grants_when_headroom_is_tight() {
        // All-or-nothing admission: a flow the home pool cannot fully carry
        // spills to an alternative pool at its FULL desired rate — active
        // flows are never degraded and new ones never throttled.
        let mut p = pool();
        p.admit(Isp::Cernet, 200.0, 200.0);
        match p.admit(Isp::Cernet, 100.0, 100.0) {
            Admission::CrossIsp { rate_kbps, server_isp } => {
                assert_eq!(rate_kbps, 100.0);
                assert_ne!(server_isp, Isp::Cernet);
            }
            other => panic!("expected full-rate spill, got {other:?}"),
        }
    }

    #[test]
    fn admission_rate_zero_when_rejected() {
        assert_eq!(Admission::Rejected.rate_kbps(), 0.0);
        assert_eq!(Admission::Rejected.server_isp(), None);
    }
}
