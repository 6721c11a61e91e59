package router

import (
	"fmt"

	"spinngo/internal/phy"
	"spinngo/internal/topo"
)

// Level is one packaging level of the machine: the chip footprint of one
// of its units and the link model of the links whose highest crossing
// is a unit edge of this level.
type Level struct {
	Tile topo.Tile
	Link phy.LinkParams
}

// Link presets a configured packaging level may name.
const (
	// LinkSlow (or "") gives the level its own default link block
	// (phy.DefaultLink): the realistic model, slower and costlier than
	// the level below.
	LinkSlow = "slow"
	// LinkUniform reuses the block of the level below: the hierarchy
	// without extra PHY heterogeneity, the ablation. The level's links
	// then price, time and account exactly as the level below's.
	LinkUniform = "uniform"
)

// LevelSpec is one packaging level above the chip as a configuration
// spells it, with the names the configuration gives its two fields so
// errors can point at them.
type LevelSpec struct {
	// Tile is the unit's size as "WxH" in units of the level below
	// (chips for the first level above the chip); "" means the machine
	// has no such level.
	Key, Tile string
	// Link is the level's link preset: "", LinkSlow or LinkUniform.
	LinkKey, Link string
}

// ResolveLevels turns configured packaging levels into the level list a
// fabric of torus t runs on: the chip level, then one level per spec
// with a tile, bottom-up. It is the one place configuration spelling
// becomes levels, shared by the machine and the workload parser, so
// both accept exactly the same configurations. A level needs every
// level below it, its tile must cover the torus exactly, and a link
// preset needs its level.
func ResolveLevels(t topo.Torus, specs ...LevelSpec) ([]Level, error) {
	levels := []Level{{Tile: topo.Tile{W: 1, H: 1}, Link: phy.DefaultLink(0)}}
	for i, s := range specs {
		if s.Link != "" && s.Link != LinkSlow && s.Link != LinkUniform {
			return nil, fmt.Errorf("%s: unknown link preset %q (want %q or %q)", s.LinkKey, s.Link, LinkSlow, LinkUniform)
		}
		if s.Tile == "" {
			if s.Link != "" {
				return nil, fmt.Errorf("%s: %q requires %s", s.LinkKey, s.Link, s.Key)
			}
			continue
		}
		if len(levels) <= i {
			return nil, fmt.Errorf("%s: requires %s (the level below)", s.Key, specs[i-1].Key)
		}
		g, err := topo.ParseTile(s.Tile)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Key, err)
		}
		below := levels[i]
		tile := g.Of(below.Tile)
		if err := tile.Validate(t); err != nil {
			return nil, fmt.Errorf("%s: %q: %w", s.Key, s.Tile, err)
		}
		link := phy.DefaultLink(i + 1)
		if s.Link == LinkUniform {
			link = below.Link
		}
		levels = append(levels, Level{Tile: tile, Link: link})
	}
	return levels, nil
}
