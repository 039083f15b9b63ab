//! Timing shims around the public switch and program traits.
//!
//! Each shim forwards every trait method to the wrapped value and opens a
//! [`trace`] span around the calls that do work. Forwarding is total: the
//! switch decides its path from `as_any` (downcasts), `flow_cacheable`
//! (flow-cache replay) and `passive_events` (dispatch elision), so a shim
//! that fell back to a trait default would change what is measured. The
//! traced run's outcome digest must equal the untraced run's, which is
//! the check that these forwards change nothing.

use crate::trace::{span, Layer};
use edp_core::event::{
    ControlPlaneEvent, DequeueEvent, EnqueueEvent, LinkStatusEvent, OverflowEvent, TimerEvent,
    TransmitEvent, UnderflowEvent, UserEvent,
};
use edp_core::{EventActions, EventProgram};
use edp_evsim::SimTime;
use edp_netsim::SwitchHarness;
use edp_packet::{Packet, ParsedPacket};
use edp_pisa::{PisaProgram, PortId, StdMeta};
use std::any::Any;

/// Times a switch at the network boundary.
pub struct ShimSwitch(pub Box<dyn SwitchHarness>);

impl SwitchHarness for ShimSwitch {
    fn n_ports(&self) -> usize {
        self.0.n_ports()
    }
    fn receive(&mut self, now: SimTime, port: PortId, pkt: Packet) {
        let _s = span(Layer::SwitchReceive);
        self.0.receive(now, port, pkt)
    }
    fn receive_burst(&mut self, now: SimTime, port: PortId, burst: edp_packet::Burst) {
        let _s = span(Layer::SwitchReceive);
        self.0.receive_burst(now, port, burst)
    }
    fn transmit(&mut self, now: SimTime, port: PortId) -> Option<Packet> {
        let _s = span(Layer::SwitchTransmit);
        self.0.transmit(now, port)
    }
    fn has_pending(&self, port: PortId) -> bool {
        self.0.has_pending(port)
    }
    fn fire_due_timers(&mut self, now: SimTime) {
        let _s = span(Layer::SwitchTimer);
        self.0.fire_due_timers(now)
    }
    fn next_timer_due(&self) -> Option<SimTime> {
        self.0.next_timer_due()
    }
    fn set_link_status(&mut self, now: SimTime, port: PortId, up: bool) {
        let _s = span(Layer::SwitchLink);
        self.0.set_link_status(now, port, up)
    }
    fn control_plane(&mut self, now: SimTime, opcode: u32, args: [u64; 4]) {
        let _s = span(Layer::SwitchControl);
        self.0.control_plane(now, opcode, args)
    }
    fn drain_cp(&mut self) -> Vec<edp_core::CpNotification> {
        self.0.drain_cp()
    }
    fn publish_metrics(&self, reg: &mut edp_telemetry::Registry, scope: &str) {
        self.0.publish_metrics(reg, scope)
    }
    fn as_any(&self) -> &dyn Any {
        self.0.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}

/// Times a baseline program's ingress (table lookups), egress and
/// control-plane updates.
pub struct ShimPisa<P>(pub P);

impl<P: PisaProgram> PisaProgram for ShimPisa<P> {
    fn ingress(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
    ) {
        let _s = span(Layer::PisaIngress);
        self.0.ingress(pkt, parsed, meta, now)
    }
    fn egress(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
    ) {
        let _s = span(Layer::PisaEgress);
        self.0.egress(pkt, parsed, meta, now)
    }
    fn control_update(&mut self, opcode: u32, args: [u64; 4], now: SimTime) {
        let _s = span(Layer::PisaControl);
        self.0.control_update(opcode, args, now)
    }
    fn flow_cacheable(&self) -> bool {
        self.0.flow_cacheable()
    }
}

/// Times every event handler of an event-driven program.
pub struct ShimEvent<P>(pub P);

impl<P: EventProgram> EventProgram for ShimEvent<P> {
    fn on_ingress(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        actions: &mut EventActions,
    ) {
        let _s = span(Layer::AppIngress);
        self.0.on_ingress(pkt, parsed, meta, now, actions)
    }
    fn on_egress(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        actions: &mut EventActions,
    ) {
        let _s = span(Layer::AppEgress);
        self.0.on_egress(pkt, parsed, meta, now, actions)
    }
    fn on_recirculated(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        actions: &mut EventActions,
    ) {
        let _s = span(Layer::AppIngress);
        self.0.on_recirculated(pkt, parsed, meta, now, actions)
    }
    fn on_generated(
        &mut self,
        pkt: &mut Packet,
        parsed: &ParsedPacket,
        meta: &mut StdMeta,
        now: SimTime,
        actions: &mut EventActions,
    ) {
        let _s = span(Layer::AppIngress);
        self.0.on_generated(pkt, parsed, meta, now, actions)
    }
    fn on_enqueue(&mut self, ev: &EnqueueEvent, now: SimTime, actions: &mut EventActions) {
        let _s = span(Layer::AppEnqueue);
        self.0.on_enqueue(ev, now, actions)
    }
    fn on_dequeue(&mut self, ev: &DequeueEvent, now: SimTime, actions: &mut EventActions) {
        let _s = span(Layer::AppDequeue);
        self.0.on_dequeue(ev, now, actions)
    }
    fn on_overflow(&mut self, ev: &OverflowEvent, now: SimTime, actions: &mut EventActions) {
        let _s = span(Layer::AppOverflow);
        self.0.on_overflow(ev, now, actions)
    }
    fn on_underflow(&mut self, ev: &UnderflowEvent, now: SimTime, actions: &mut EventActions) {
        let _s = span(Layer::AppUnderflow);
        self.0.on_underflow(ev, now, actions)
    }
    fn on_timer(&mut self, ev: &TimerEvent, now: SimTime, actions: &mut EventActions) {
        let _s = span(Layer::AppTimer);
        self.0.on_timer(ev, now, actions)
    }
    fn on_control_plane(
        &mut self,
        ev: &ControlPlaneEvent,
        now: SimTime,
        actions: &mut EventActions,
    ) {
        let _s = span(Layer::AppOther);
        self.0.on_control_plane(ev, now, actions)
    }
    fn on_link_status(&mut self, ev: &LinkStatusEvent, now: SimTime, actions: &mut EventActions) {
        let _s = span(Layer::AppOther);
        self.0.on_link_status(ev, now, actions)
    }
    fn on_user(&mut self, ev: &UserEvent, now: SimTime, actions: &mut EventActions) {
        let _s = span(Layer::AppOther);
        self.0.on_user(ev, now, actions)
    }
    fn on_transmit(&mut self, ev: &TransmitEvent, now: SimTime, actions: &mut EventActions) {
        let _s = span(Layer::AppOther);
        self.0.on_transmit(ev, now, actions)
    }
    fn flow_cacheable(&self) -> bool {
        self.0.flow_cacheable()
    }
    fn passive_events(&self) -> u16 {
        self.0.passive_events()
    }
}
