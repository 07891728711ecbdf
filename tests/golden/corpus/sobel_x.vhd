-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'sobel_x'
-- data path: 1 nodes (1 soft, 0 hard), 2 pipeline stages
-- netlist: 12 cells, 33 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sobel_x_dp_node1 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    v0_P0 : in signed(9 downto 0);
    v1_P1 : in signed(9 downto 0);
    v2_P2 : in signed(9 downto 0);
    v3_P3 : in signed(9 downto 0);
    v4_P4 : in signed(9 downto 0);
    v5_P5 : in signed(9 downto 0);
    v13_t_out : out signed(12 downto 0)
  );
end entity sobel_x_dp_node1;

architecture rtl of sobel_x_dp_node1 is
  signal v6_t : signed(10 downto 0);
  signal v7_t : signed(10 downto 0);
  signal v9_t : signed(11 downto 0);
  signal v10_t : signed(12 downto 0);
  signal v11_t : signed(12 downto 0);
  signal v12_t : signed(12 downto 0);
  signal v13_t : signed(12 downto 0);
  signal v10_t_s1 : signed(12 downto 0);
begin
  v6_t <= resize(v1_P1, 11) - resize(v0_P0, 11);
  v7_t <= resize(v3_P3, 11) - resize(v2_P2, 11);
  v9_t <= shift_left(resize(v7_t, 12), to_integer(to_unsigned(1, 6)));
  v10_t <= resize(v6_t, 13) + resize(v9_t, 13);
  v11_t <= v10_t_s1 + resize(v5_P5, 13);
  v12_t <= v11_t - resize(v4_P4, 13);
  v13_t <= v12_t;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        v10_t_s1 <= v10_t;
      end if;
    end if;
  end process;
  v13_t_out <= v13_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity sobel_x_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    P0 : in signed(9 downto 0);
    P1 : in signed(9 downto 0);
    P2 : in signed(9 downto 0);
    P3 : in signed(9 downto 0);
    P4 : in signed(9 downto 0);
    P5 : in signed(9 downto 0);
    G_o0 : out signed(13 downto 0)
  );
end entity sobel_x_dp;

architecture rtl of sobel_x_dp is
  signal v13_t : signed(12 downto 0);
  signal v5_P5_p1 : signed(9 downto 0);
  signal v4_P4_p1 : signed(9 downto 0);
begin
  u_node1 : entity work.sobel_x_dp_node1
    port map (clk => clk, ce => ce, v0_P0 => P0, v1_P1 => P1, v2_P2 => P2, v3_P3 => P3, v4_P4 => v4_P4_p1, v5_P5 => v5_P5_p1, v13_t_out => v13_t);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        v5_P5_p1 <= P5;
        v4_P4_p1 <= P4;
      end if;
    end if;
  end process;
  G_o0 <= resize(v13_t, 14);
end architecture rtl;
