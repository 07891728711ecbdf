-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'alpha_blend'
-- data path: 1 nodes (1 soft, 0 hard), 3 pipeline stages
-- netlist: 13 cells, 64 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity alpha_blend_dp_node1 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    v0_A0 : in unsigned(7 downto 0);
    v1_B0 : in unsigned(7 downto 0);
    v2_alpha : in unsigned(7 downto 0);
    v10_t_out : out unsigned(7 downto 0)
  );
end entity alpha_blend_dp_node1;

architecture rtl of alpha_blend_dp_node1 is
  signal v3_t : unsigned(15 downto 0);
  signal v5_t : unsigned(7 downto 0);
  signal v6_t : unsigned(15 downto 0);
  signal v7_t : unsigned(16 downto 0);
  signal v9_t : unsigned(8 downto 0);
  signal v10_t : unsigned(7 downto 0);
  signal v5_t_s1 : unsigned(7 downto 0);
  signal v3_t_s1 : unsigned(15 downto 0);
  signal v3_t_s2 : unsigned(15 downto 0);
  signal v6_t_s2 : unsigned(15 downto 0);
begin
  v3_t <= resize(resize(v2_alpha, 16) * resize(v0_A0, 16), 16);
  v5_t <= to_unsigned(255, 8) - v2_alpha;
  v6_t <= resize(resize(v5_t_s1, 16) * resize(v1_B0, 16), 16);
  v7_t <= resize(v3_t_s2, 17) + resize(v6_t_s2, 17);
  v9_t <= shift_right(resize(v7_t, 9), to_integer(to_unsigned(8, 6)));
  v10_t <= resize(v9_t, 8);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        v5_t_s1 <= v5_t;
        v3_t_s1 <= v3_t;
        v3_t_s2 <= v3_t_s1;
        v6_t_s2 <= v6_t;
      end if;
    end if;
  end process;
  v10_t_out <= v10_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity alpha_blend_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in unsigned(7 downto 0);
    B0 : in unsigned(7 downto 0);
    alpha : in unsigned(7 downto 0);
    C_o0 : out unsigned(7 downto 0)
  );
end entity alpha_blend_dp;

architecture rtl of alpha_blend_dp is
  signal v10_t : unsigned(7 downto 0);
  signal v1_B0_p1 : unsigned(7 downto 0);
begin
  u_node1 : entity work.alpha_blend_dp_node1
    port map (clk => clk, ce => ce, v0_A0 => A0, v1_B0 => v1_B0_p1, v2_alpha => alpha, v10_t_out => v10_t);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        v1_B0_p1 <= B0;
      end if;
    end if;
  end process;
  C_o0 <= resize(v10_t, 8);
end architecture rtl;
