// Package topology models the intra-host network of a commodity server:
// the heterogeneous components (CPU sockets, memory controllers, DIMMs,
// last-level caches, PCIe root ports and switches, and endpoint devices
// such as GPUs, NICs and NVMe SSDs) and the fabric links that connect
// them (inter-socket connects, intra-socket connects, PCIe upstream and
// downstream links, and the inter-host network link).
//
// The five link classes and their capacity/latency envelopes follow
// Figure 1 of "Towards a Manageable Intra-Host Network" (HotOS '23).
package topology

import "fmt"

// Kind classifies a component of the intra-host network.
type Kind int

const (
	// KindCPU is a CPU socket's compute complex (cores + on-die mesh).
	KindCPU Kind = iota
	// KindLLC is a socket's last-level cache, the DDIO landing zone.
	KindLLC
	// KindMemCtrl is an integrated memory controller.
	KindMemCtrl
	// KindDIMM is a DRAM module behind a memory controller.
	KindDIMM
	// KindRootPort is a PCIe root port on the root complex.
	KindRootPort
	// KindPCIeSwitch is a multi-port PCIe switch.
	KindPCIeSwitch
	// KindGPU is a GPU accelerator endpoint.
	KindGPU
	// KindNIC is a network interface card endpoint.
	KindNIC
	// KindSSD is an NVMe storage endpoint.
	KindSSD
	// KindFPGA is an FPGA accelerator endpoint.
	KindFPGA
	// KindCXLMem is a CXL memory expander: device memory exposed to
	// the host as a far NUMA node over a cache-coherent link (§2 of
	// the paper: "CXL exposes memory in devices as remote memory in a
	// NUMA system ... with a latency of ~150ns").
	KindCXLMem
	// KindExternal stands for the remote end of the inter-host network,
	// so end-to-end paths can traverse link class (5).
	KindExternal
)

var kindNames = map[Kind]string{
	KindCPU:        "cpu",
	KindLLC:        "llc",
	KindMemCtrl:    "memctrl",
	KindDIMM:       "dimm",
	KindRootPort:   "rootport",
	KindPCIeSwitch: "pcieswitch",
	KindGPU:        "gpu",
	KindNIC:        "nic",
	KindSSD:        "ssd",
	KindFPGA:       "fpga",
	KindCXLMem:     "cxlmem",
	KindExternal:   "external",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// IsEndpoint reports whether the kind is a device that originates or
// terminates traffic (as opposed to pure fabric: switches, root ports,
// caches, memory controllers).
func (k Kind) IsEndpoint() bool {
	switch k {
	case KindCPU, KindDIMM, KindGPU, KindNIC, KindSSD, KindFPGA, KindCXLMem, KindExternal:
		return true
	}
	return false
}

// CanForward reports whether traffic may transit the kind en route to
// somewhere else. Fabric elements forward; CPUs forward (the
// inter-socket connect terminates on them); NICs forward (they bridge
// the inter-host and intra-host networks). Leaf devices — GPUs, SSDs,
// FPGAs, DIMMs — and the external node never relay traffic, so no
// route may hairpin through them.
func (k Kind) CanForward() bool {
	switch k {
	case KindGPU, KindSSD, KindFPGA, KindDIMM, KindCXLMem, KindExternal:
		return false
	}
	return true
}

// CompID names a component uniquely within a topology, e.g. "gpu0",
// "socket1.llc", "pcieswitch0".
type CompID string

// Component is a node in the intra-host network graph.
type Component struct {
	ID     CompID
	Kind   Kind
	Socket int // owning socket index; -1 for external

	// Config holds the component's manageability-relevant settings
	// (the dashed "Configuration" box of Figure 1): DDIO on/off, IOMMU
	// mode, interrupt moderation, PCIe max payload size, and so on.
	// The monitor watches this registry for drift. Once the component
	// is built, write it only through SetConfig: the monitor reads a
	// component's entries again only when ConfigGen has moved.
	Config map[string]string

	// configGen counts SetConfig calls; topoGen, when the component
	// belongs to a topology, is the topology's count of them.
	configGen uint64
	topoGen   *uint64
}

// SetConfig sets one configuration key, allocating the map if needed.
func (c *Component) SetConfig(key, value string) {
	if c.Config == nil {
		c.Config = make(map[string]string)
	}
	c.Config[key] = value
	c.configGen++
	if c.topoGen != nil {
		*c.topoGen++
	}
}

// ConfigGen returns how many times SetConfig has run on the
// component: a watcher that saw the same count last time knows the
// configuration has not changed since, without reading it.
func (c *Component) ConfigGen() uint64 { return c.configGen }

// ConfigValue returns the configuration value for key and whether it
// is set.
func (c *Component) ConfigValue(key string) (string, bool) {
	v, ok := c.Config[key]
	return v, ok
}

func (c *Component) String() string {
	return fmt.Sprintf("%s(%s, socket %d)", c.ID, c.Kind, c.Socket)
}

// Well-known configuration keys used across the repository.
const (
	// ConfigDDIO is "on" when DDIO direct-to-LLC writes are enabled
	// for I/O traffic toward this socket.
	ConfigDDIO = "ddio"
	// ConfigIOMMU is the IOMMU translation mode: "off", "passthrough",
	// or "translate".
	ConfigIOMMU = "iommu"
	// ConfigMaxPayload is the PCIe maximum payload size in bytes.
	ConfigMaxPayload = "pcie.max_payload"
	// ConfigRelaxedOrdering is "on" when PCIe relaxed ordering is
	// permitted on this port.
	ConfigRelaxedOrdering = "pcie.relaxed_ordering"
	// ConfigIntModeration is the interrupt moderation period in
	// microseconds ("0" disables moderation).
	ConfigIntModeration = "int_moderation_us"
	// ConfigNUMA is the NUMA binding policy for a device: "local",
	// "remote", or "interleave".
	ConfigNUMA = "numa"
)
