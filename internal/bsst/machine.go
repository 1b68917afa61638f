// Package bsst is the Simulation Platform of the prediction framework
// (§II-C): a coarse-grained system-level simulator in the spirit of BE-SST.
// It advances a per-processor simulation clock by kernel times obtained
// from the fitted performance models evaluated at the Dynamic Workload
// Generator's per-rank workload, and exchanges messages costed by a
// latency/bandwidth machine model. One engine replays a workload: the
// bulk-synchronous recurrence SimulateBSP. The tests check it against a
// discrete-event replay of the same supersteps.
package bsst

import (
	"fmt"
	"math"
)

// Machine is the target-system model: the interconnect parameters and the
// per-particle payload that turn communication-matrix counts into message
// times.
type Machine struct {
	// Name labels the system.
	Name string
	// Latency is the per-message latency in seconds.
	Latency float64
	// Bandwidth is the link bandwidth in bytes per second.
	Bandwidth float64
	// BytesPerParticle is the payload of one particle record (position,
	// velocity, properties — "each particle has a specific amount of data
	// associated with it", §II-A).
	BytesPerParticle float64
	// BytesPerGridPoint is the payload of one grid point's field state —
	// what a rebalance epoch ships per point when an element changes owner
	// (conserved variables, double precision). Zero means
	// DefaultBytesPerGridPoint.
	BytesPerGridPoint float64
}

// DefaultBytesPerGridPoint is the grid-point payload assumed when a machine
// model does not set one: 8 double-precision conserved/primitive variables
// (density, 3×momentum, energy, pressure and two species fields) at 8 bytes
// each.
const DefaultBytesPerGridPoint = 64

// Quartz returns a machine model representative of LLNL's Quartz (§IV-A):
// Intel Xeon E5 nodes on a 100 Gb/s Intel Omni-Path fabric.
func Quartz() Machine {
	return Machine{
		Name:              "quartz",
		Latency:           1.5e-6,
		Bandwidth:         12.5e9, // 100 Gb/s Omni-Path
		BytesPerParticle:  96,     // 3×pos + 3×vel + props, double precision
		BytesPerGridPoint: DefaultBytesPerGridPoint,
	}
}

// Vulcan returns a machine model representative of LLNL's Vulcan (the
// BlueGene/Q system of Fig 1 and ref [9]): a 5-D torus with low latency
// but modest per-link bandwidth.
func Vulcan() Machine {
	return Machine{
		Name:              "vulcan",
		Latency:           2.5e-6,
		Bandwidth:         2.0e9, // 2 GB/s per BG/Q link
		BytesPerParticle:  96,
		BytesPerGridPoint: DefaultBytesPerGridPoint,
	}
}

// Titan returns a machine model representative of ORNL's Titan (ref [15]):
// Gemini interconnect.
func Titan() Machine {
	return Machine{
		Name:              "titan",
		Latency:           1.4e-6,
		Bandwidth:         8.0e9,
		BytesPerParticle:  96,
		BytesPerGridPoint: DefaultBytesPerGridPoint,
	}
}

// ByName returns a machine preset: quartz, vulcan, or titan.
func ByName(name string) (Machine, bool) {
	switch name {
	case "quartz", "":
		return Quartz(), true
	case "vulcan":
		return Vulcan(), true
	case "titan":
		return Titan(), true
	}
	return Machine{}, false
}

// validate reports the first parameter that cannot price a message: a
// latency or payload that is negative or not finite, or a bandwidth that is
// not positive and finite. A zero BytesPerGridPoint is valid and means
// DefaultBytesPerGridPoint.
func (m Machine) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Latency", m.Latency},
		{"BytesPerParticle", m.BytesPerParticle},
		{"BytesPerGridPoint", m.BytesPerGridPoint},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("bsst: machine %q: %s = %v, want finite and >= 0", m.Name, f.name, f.v)
		}
	}
	if !(m.Bandwidth > 0) || math.IsInf(m.Bandwidth, 1) {
		return fmt.Errorf("bsst: machine %q: Bandwidth = %v, want finite and > 0", m.Name, m.Bandwidth)
	}
	return nil
}

// transferTime is the cost of moving n particles in one message.
func (m Machine) transferTime(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return m.Latency + float64(n)*m.BytesPerParticle/m.Bandwidth
}

// gridPointBytes returns the configured grid-point payload, defaulted.
func (m Machine) gridPointBytes() float64 {
	if m.BytesPerGridPoint <= 0 {
		return DefaultBytesPerGridPoint
	}
	return m.BytesPerGridPoint
}

// migrationBytes is the wire payload of one rebalance transfer: elems
// elements of grid state (pointsPerElem grid points each) plus parts
// resident particle records.
func (m Machine) migrationBytes(elems, parts int64, pointsPerElem float64) float64 {
	return float64(elems)*pointsPerElem*m.gridPointBytes() + float64(parts)*m.BytesPerParticle
}

// migrationTime is the cost of one rebalance transfer as a single LogP
// message from old owner to new owner. Unlike ghost updates it is paid once
// per interval, not per iteration — ownership changes at the epoch and stays.
func (m Machine) migrationTime(elems, parts int64, pointsPerElem float64) float64 {
	if elems <= 0 && parts <= 0 {
		return 0
	}
	return m.Latency + m.migrationBytes(elems, parts, pointsPerElem)/m.Bandwidth
}
