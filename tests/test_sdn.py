"""Tests for the SDN substrate: flow rules, switch and controller."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SdnError
from repro.net.addresses import MACAddress
from repro.sdn.controller import SdnController
from repro.sdn.openflow import FlowAction, FlowMatch, FlowRule
from repro.sdn.switch import OpenVSwitch, SwitchPort

from tests.conftest import make_tcp_packet, make_udp_packet

DEVICE = MACAddress.from_string("02:00:00:00:00:10")
OTHER = MACAddress.from_string("02:00:00:00:00:20")
THIRD = MACAddress.from_string("02:00:00:00:00:30")
GATEWAY = MACAddress.from_string("02:00:00:00:00:01")


def arp_packet(src_mac):
    from repro.net.layers.arp import OP_REQUEST, ARPPacket
    from repro.net.layers.ethernet import ETHERTYPE, EthernetFrame
    from repro.net.packet import Packet

    return Packet(
        ethernet=EthernetFrame(dst=MACAddress.broadcast(), src=src_mac, ethertype=ETHERTYPE.ARP),
        arp=ARPPacket(OP_REQUEST, src_mac, "0.0.0.0", MACAddress.zero(), "10.0.0.1"),
    )


class ReferenceFlowTable:
    """The flow table as one list: append + stable sort on install, linear scan.

    This is the switch's original implementation, kept as the oracle the
    source-MAC index is checked against.
    """

    def __init__(self):
        self.rules = []

    def install_rule(self, rule):
        self.rules.append(rule)
        self.rules.sort(key=lambda entry: (entry.priority, entry.match.specificity), reverse=True)

    def remove_rules(self, cookie):
        before = len(self.rules)
        self.rules = [rule for rule in self.rules if rule.cookie != cookie]
        return before - len(self.rules)

    def flush(self):
        self.rules.clear()

    def lookup(self, packet):
        for rule in self.rules:
            if rule.match.matches_packet(packet):
                return rule
        return None


class TestFlowMatch:
    def test_wildcard_matches_everything(self):
        packet = make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8")
        assert FlowMatch().matches_packet(packet)
        assert FlowMatch().specificity == 0

    def test_mac_match(self):
        packet = make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8")
        assert FlowMatch(src_mac=DEVICE).matches_packet(packet)
        assert not FlowMatch(src_mac=OTHER).matches_packet(packet)

    def test_ip_and_port_match(self):
        packet = make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", "52.1.1.1", dst_port=443)
        assert FlowMatch(dst_ip="52.1.1.1", protocol="tcp", dst_port=443).matches_packet(packet)
        assert not FlowMatch(dst_ip="52.1.1.2").matches_packet(packet)
        assert not FlowMatch(protocol="udp").matches_packet(packet)

    def test_ip_fields_do_not_match_non_ip_packets(self):
        arp = arp_packet(DEVICE)
        assert not FlowMatch(dst_ip="10.0.0.1").matches_packet(arp)
        assert FlowMatch(src_mac=DEVICE).matches_packet(arp)

    def test_specificity_counts_fields(self):
        match = FlowMatch(src_mac=DEVICE, dst_ip="1.2.3.4", dst_port=80)
        assert match.specificity == 3

    def test_negative_priority_rejected(self):
        with pytest.raises(SdnError):
            FlowRule(match=FlowMatch(), action=FlowAction.DROP, priority=-1)


class TestOpenVSwitch:
    def test_priority_ordering(self):
        switch = OpenVSwitch()
        switch.install_rule(FlowRule(FlowMatch(src_mac=DEVICE), FlowAction.DROP, priority=10))
        switch.install_rule(
            FlowRule(FlowMatch(src_mac=DEVICE, dst_ip="52.1.1.1"), FlowAction.FORWARD, priority=50)
        )
        allowed = switch.process(make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", "52.1.1.1"))
        blocked = switch.process(make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8"))
        assert allowed.forwarded
        assert blocked.dropped
        assert switch.packets_processed == 2
        assert switch.packets_dropped == 1

    def test_rule_hit_counters(self):
        switch = OpenVSwitch()
        rule = FlowRule(FlowMatch(src_mac=DEVICE), FlowAction.FORWARD, priority=1)
        switch.install_rule(rule)
        switch.process(make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8"))
        switch.process(make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.4.4"))
        assert rule.packet_count == 2

    def test_default_action_on_miss(self):
        permissive = OpenVSwitch(default_action=FlowAction.FORWARD)
        restrictive = OpenVSwitch(default_action=FlowAction.DROP)
        packet = make_udp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8")
        assert permissive.process(packet).forwarded
        assert restrictive.process(packet).dropped

    def test_packet_in_handler_invoked_on_miss(self):
        seen = []

        def handler(packet, switch):
            seen.append(packet)
            return FlowAction.DROP

        switch = OpenVSwitch(packet_in_handler=handler)
        decision = switch.process(make_udp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8"))
        assert decision.dropped
        assert decision.sent_to_controller
        assert len(seen) == 1
        assert switch.packets_to_controller == 1

    def test_send_to_controller_action(self):
        switch = OpenVSwitch(packet_in_handler=lambda packet, sw: FlowAction.FORWARD)
        switch.install_rule(FlowRule(FlowMatch(src_mac=DEVICE), FlowAction.SEND_TO_CONTROLLER, priority=5))
        decision = switch.process(make_udp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8"))
        assert decision.forwarded
        assert decision.sent_to_controller

    def test_remove_rules_by_cookie(self):
        switch = OpenVSwitch()
        switch.install_rule(FlowRule(FlowMatch(src_mac=DEVICE), FlowAction.DROP, priority=1, cookie="a"))
        switch.install_rule(FlowRule(FlowMatch(src_mac=OTHER), FlowAction.DROP, priority=1, cookie="b"))
        assert switch.remove_rules("a") == 1
        assert switch.rule_count == 1
        with pytest.raises(SdnError):
            switch.remove_rules("")

    def test_flush(self):
        switch = OpenVSwitch()
        switch.install_rule(FlowRule(FlowMatch(), FlowAction.DROP, priority=1))
        switch.flush()
        assert switch.rule_count == 0

    def test_port_learning(self):
        switch = OpenVSwitch()
        switch.process(make_udp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8"), ingress_port=SwitchPort.WIFI)
        assert switch.port_of(DEVICE) == SwitchPort.WIFI
        assert switch.port_of(OTHER) is None


    def test_ties_resolve_in_install_order(self):
        switch = OpenVSwitch()
        first = FlowRule(FlowMatch(src_mac=DEVICE), FlowAction.DROP, priority=5, cookie="a")
        wildcard = FlowRule(FlowMatch(dst_ip="8.8.8.8"), FlowAction.FORWARD, priority=5, cookie="b")
        second = FlowRule(FlowMatch(src_mac=DEVICE), FlowAction.FORWARD, priority=5, cookie="c")
        for rule in (first, wildcard, second):
            switch.install_rule(rule)
        assert switch.rules == (first, wildcard, second)
        assert switch.lookup(make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8")) is first
        switch.remove_rules("a")
        # Equal priority and specificity: the earlier-installed wildcard rule wins.
        assert switch.lookup(make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8")) is wildcard
        assert switch.lookup(make_tcp_packet(DEVICE, GATEWAY, "10.0.0.2", "1.1.1.1")) is second

    def test_rules_view_is_read_only(self):
        switch = OpenVSwitch()
        switch.install_rule(FlowRule(FlowMatch(src_mac=DEVICE), FlowAction.DROP, priority=1))
        view = switch.rules
        assert isinstance(view, tuple)
        switch.flush()
        assert len(view) == 1 and switch.rules == ()


# --------------------------------------------------------------------------- #
# The source-MAC index against the reference table.
# --------------------------------------------------------------------------- #

_MACS = (DEVICE, OTHER, THIRD)
_IPS = ("52.1.1.1", "8.8.8.8")

flow_rules = st.builds(
    lambda src_mac, dst_ip, protocol, action, priority, cookie: FlowRule(
        FlowMatch(src_mac=src_mac, dst_ip=dst_ip, protocol=protocol),
        action,
        priority=priority,
        cookie=cookie,
    ),
    src_mac=st.sampled_from((None, *_MACS)),
    dst_ip=st.sampled_from((None, *_IPS)),
    protocol=st.sampled_from((None, None, "udp")),
    action=st.sampled_from(tuple(FlowAction)),
    priority=st.integers(min_value=0, max_value=2),
    cookie=st.sampled_from(("", "a", "b", "c")),
)

packets = st.builds(
    lambda kind, src_mac, dst_ip: (
        arp_packet(src_mac)
        if kind == "arp"
        else (make_tcp_packet if kind == "tcp" else make_udp_packet)(
            src_mac, GATEWAY, "10.0.0.2", dst_ip
        )
    ),
    kind=st.sampled_from(("tcp", "udp", "arp")),
    src_mac=st.sampled_from(_MACS),
    dst_ip=st.sampled_from((*_IPS, "1.1.1.1")),
)

# Repeated alternatives weight the draw towards installs and lookups, so
# tables grow past a few rules between flushes.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("install"), flow_rules),
        st.tuples(st.just("install"), flow_rules),
        st.tuples(st.just("install"), flow_rules),
        st.tuples(st.just("remove"), st.sampled_from(("a", "b", "c", "missing"))),
        st.tuples(st.just("flush"), st.none()),
        st.tuples(st.just("lookup"), packets),
        st.tuples(st.just("lookup"), packets),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(operations)
def test_index_agrees_with_reference_table(ops):
    switch, reference = OpenVSwitch(), ReferenceFlowTable()
    for op, arg in ops:
        if op == "install":
            switch.install_rule(arg)
            reference.install_rule(arg)
        elif op == "remove":
            assert switch.remove_rules(arg) == reference.remove_rules(arg)
        elif op == "flush":
            switch.flush()
            reference.flush()
        else:
            assert switch.lookup(arg) is reference.lookup(arg)
        assert [id(rule) for rule in switch.rules] == [id(rule) for rule in reference.rules]
        assert switch.rule_count == len(reference.rules)


def counting_rule_type(attribute, reads):
    """A FlowRule subclass that records every read of ``attribute``."""

    class CountingRule(FlowRule):
        def __getattribute__(self, name):
            if name == attribute:
                reads.append(self)
            return super().__getattribute__(name)

    return CountingRule


class TestIndexCost:
    """Call counts, not timings: a table of other devices' rules costs nothing."""

    TARGET = MACAddress.from_string("02:00:00:00:ff:ff")

    def crowded_switch(self, rule_type):
        """5,000 rules of 1,000 other devices, 3 of TARGET and 2 wildcard rules."""
        switch = OpenVSwitch()
        for index in range(1000):
            mac = MACAddress(0x020000100000 + index)
            for offset in range(5):
                switch.install_rule(rule_type(
                    FlowMatch(src_mac=mac, dst_ip=f"10.1.0.{offset}"), FlowAction.FORWARD,
                    priority=110, cookie=f"enforce-{mac}",
                ))
        for offset in range(2):
            switch.install_rule(rule_type(
                FlowMatch(src_mac=self.TARGET, dst_ip=f"52.0.0.{offset}"), FlowAction.FORWARD,
                priority=110, cookie=f"enforce-{self.TARGET}",
            ))
        switch.install_rule(rule_type(
            FlowMatch(src_mac=self.TARGET), FlowAction.SEND_TO_CONTROLLER,
            priority=100, cookie=f"enforce-{self.TARGET}",
        ))
        for offset in range(2):
            switch.install_rule(rule_type(
                FlowMatch(dst_ip=f"9.9.9.{offset}"), FlowAction.DROP, priority=150 * offset,
            ))
        assert switch.rule_count == 5005
        return switch

    def test_lookup_evaluates_own_and_wildcard_buckets_only(self):
        match_reads = []
        switch = self.crowded_switch(counting_rule_type("match", match_reads))
        match_reads.clear()
        rule = switch.lookup(make_tcp_packet(self.TARGET, GATEWAY, "10.0.0.2", "8.8.8.8"))
        assert rule is not None and rule.action == FlowAction.SEND_TO_CONTROLLER
        assert len(match_reads) <= 3 + 2
        match_reads.clear()
        assert switch.lookup(make_tcp_packet(THIRD, GATEWAY, "10.0.0.3", "8.8.8.8")) is None
        assert len(match_reads) <= 2

    def test_cookie_removal_touches_only_its_bucket(self):
        cookie_reads = []
        switch = self.crowded_switch(counting_rule_type("cookie", cookie_reads))
        cookie_reads.clear()
        assert switch.remove_rules(f"enforce-{self.TARGET}") == 3
        assert len(cookie_reads) <= 3
        assert switch.rule_count == 5002


class TestSdnController:
    def test_attach_and_dispatch(self):
        controller = SdnController()
        switch = OpenVSwitch()
        controller.attach_switch(switch)

        class DropModule:
            name = "drop-all"

            def on_packet_in(self, packet, switch):
                return FlowAction.DROP

        controller.register_module(DropModule())
        decision = switch.process(make_udp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8"))
        assert decision.dropped
        assert controller.packet_in_count == 1

    def test_modules_consulted_in_order(self):
        controller = SdnController()
        switch = OpenVSwitch()
        controller.attach_switch(switch)
        calls = []

        class Pass:
            name = "pass"

            def on_packet_in(self, packet, switch):
                calls.append("pass")
                return None

        class Allow:
            name = "allow"

            def on_packet_in(self, packet, switch):
                calls.append("allow")
                return FlowAction.FORWARD

        controller.register_module(Pass())
        controller.register_module(Allow())
        switch.process(make_udp_packet(DEVICE, GATEWAY, "10.0.0.2", "8.8.8.8"))
        assert calls == ["pass", "allow"]

    def test_duplicate_switch_and_module_rejected(self):
        controller = SdnController()
        switch = OpenVSwitch()
        controller.attach_switch(switch)
        with pytest.raises(SdnError):
            controller.attach_switch(OpenVSwitch())

        class Module:
            name = "m"

            def on_packet_in(self, packet, switch):
                return None

        controller.register_module(Module())
        with pytest.raises(SdnError):
            controller.register_module(Module())

    def test_install_rule_via_controller(self):
        controller = SdnController()
        switch = OpenVSwitch(name="br0")
        controller.attach_switch(switch)
        controller.install_rule("br0", FlowRule(FlowMatch(src_mac=DEVICE), FlowAction.DROP, priority=3, cookie="x"))
        assert switch.rule_count == 1
        assert controller.remove_rules("br0", "x") == 1
        with pytest.raises(SdnError):
            controller.switch("missing")

    def test_detach_switch(self):
        controller = SdnController()
        switch = OpenVSwitch()
        controller.attach_switch(switch)
        controller.detach_switch(switch.name)
        assert switch.packet_in_handler is None
