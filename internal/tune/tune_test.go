package tune

import (
	"fmt"
	"math"
	"testing"
)

func TestSearchFindsMaximum(t *testing.T) {
	axes := []Axis{
		{Name: "x", Values: []float64{-2, -1, 0, 1, 2}},
		{Name: "y", Values: []float64{-1, 0, 1}},
	}
	// objective peaks at x=1, y=0
	res, err := Search(axes, func(p Point) (float64, error) {
		return -(p["x"]-1)*(p["x"]-1) - p["y"]*p["y"], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best["x"] != 1 || res.Best["y"] != 0 {
		t.Fatalf("best = %v", res.Best)
	}
	if res.Evaluated != 15 || len(res.Scores) != 15 {
		t.Fatalf("evaluated %d points, want 15", res.Evaluated)
	}
	if res.BestScore != 0 {
		t.Fatalf("best score %v, want 0", res.BestScore)
	}
}

func TestSearchSingleAxis(t *testing.T) {
	res, err := Search([]Axis{{Name: "lr", Values: []float64{0.1, 0.5, 0.9}}},
		func(p Point) (float64, error) { return -math.Abs(p["lr"] - 0.5), nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Best["lr"] != 0.5 {
		t.Fatalf("best = %v", res.Best)
	}
}

func TestSearchValidation(t *testing.T) {
	obj := func(Point) (float64, error) { return 0, nil }
	if _, err := Search(nil, obj); err == nil {
		t.Fatal("empty axes accepted")
	}
	if _, err := Search([]Axis{{Name: "", Values: []float64{1}}}, obj); err == nil {
		t.Fatal("unnamed axis accepted")
	}
	if _, err := Search([]Axis{{Name: "a", Values: nil}}, obj); err == nil {
		t.Fatal("empty axis accepted")
	}
}

func TestSearchPropagatesObjectiveError(t *testing.T) {
	_, err := Search([]Axis{{Name: "a", Values: []float64{1, 2}}},
		func(p Point) (float64, error) {
			if p["a"] == 2 {
				return 0, fmt.Errorf("boom")
			}
			return 1, nil
		})
	if err == nil {
		t.Fatal("objective error swallowed")
	}
}

func TestFirstBestWinsTies(t *testing.T) {
	order := []float64{}
	res, err := Search([]Axis{{Name: "a", Values: []float64{10, 20, 30}}},
		func(p Point) (float64, error) {
			order = append(order, p["a"])
			return 1, nil // all tied
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best["a"] != 10 {
		t.Fatalf("tie should go to the first candidate, got %v", res.Best)
	}
	if order[0] != 10 || order[2] != 30 {
		t.Fatal("enumeration order not deterministic")
	}
}
